// Package tmo's root benchmark suite regenerates every table and figure of
// the paper's evaluation, one benchmark per exhibit. Each iteration runs the
// full experiment at quick scale and reports the figure's headline numbers
// as custom benchmark metrics, so `go test -bench . -benchmem` doubles as a
// reproduction report. An exhibit that states claims (experiments.Claim)
// passes them to mustHold, which stops the benchmark on the first claim that
// fails at the iteration's seed, so a timing is never reported for a figure
// that lost its shape:
//
//	BenchmarkFigure9AppSavings    ... zswap-savings-%  ssd-savings-%
//	BenchmarkFigure12FastSlowSSD  ... fast-rps  slow-rps  fast-promos/s ...
//
// Absolute paper values are not expected to match (the substrate is a
// simulator); EXPERIMENTS.md records paper-vs-measured for every exhibit.
package tmo

import (
	"testing"

	"tmo/internal/experiments"
)

func benchCfg(i int) experiments.Config {
	return experiments.Config{Quick: true, Seed: uint64(1000 + i)}
}

// mustHold stops the benchmark on the first claim that does not hold.
func mustHold(b *testing.B, claims []experiments.Claim) {
	b.Helper()
	for _, c := range claims {
		if !c.Holds {
			b.Fatalf("claim %q fails (margin %g)", c.Name, c.Margin)
		}
	}
}

func BenchmarkFigure1CostTrends(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure1()
		if len(r.Points) != 6 {
			b.Fatal("bad cost trend")
		}
	}
}

func BenchmarkFigure2Coldness(b *testing.B) {
	var avgCold float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure2(benchCfg(i))
		avgCold = r.Average.Cold
	}
	b.ReportMetric(100*avgCold, "avg-cold-%")
}

func BenchmarkFigure3MemoryTax(b *testing.B) {
	var dc, micro float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure3(benchCfg(i))
		dc, micro = r.DatacenterTaxFrac, r.MicroserviceTaxFrac
	}
	b.ReportMetric(100*dc, "dc-tax-%")
	b.ReportMetric(100*micro, "usvc-tax-%")
}

func BenchmarkFigure4AnonFile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure4(benchCfg(i))
		if len(r.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

func BenchmarkFigure5SSDCatalog(b *testing.B) {
	var zswapP90 float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure5(benchCfg(i))
		zswapP90 = r.ZswapP90us
	}
	b.ReportMetric(zswapP90, "zswap-p90-us")
}

func BenchmarkFigure7PSISemantics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Figure7()
		if r.QuarterSome[0] != 12.5 {
			b.Fatal("PSI semantics drifted")
		}
	}
}

func BenchmarkFigure8SenpaiTracking(b *testing.B) {
	var pressure float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure8(benchCfg(i))
		pts := r.Pressure.Points
		pressure = pts[len(pts)-1].V
	}
	b.ReportMetric(100*pressure, "steady-pressure-%")
}

func BenchmarkFigure9AppSavings(b *testing.B) {
	var zswap, ssd float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure9(benchCfg(i))
		var zs, zn, ss, sn float64
		for _, row := range r.Rows {
			if row.Backend.String() == "zswap" {
				zs += row.SavingsFrac
				zn++
			} else {
				ss += row.SavingsFrac
				sn++
			}
		}
		zswap, ssd = zs/zn, ss/sn
	}
	b.ReportMetric(100*zswap, "zswap-savings-%")
	b.ReportMetric(100*ssd, "ssd-savings-%")
}

func BenchmarkFigure10TaxSavings(b *testing.B) {
	var dc, micro float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure10(benchCfg(i))
		dc, micro = r.DCTaxSavings, r.MicroTaxSavings
	}
	b.ReportMetric(100*dc, "dc-savings-%")
	b.ReportMetric(100*micro, "usvc-savings-%")
}

func BenchmarkFigure11WebMemoryBound(b *testing.B) {
	var baseSag, tmoHold float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure11(benchCfg(i))
		baseSag = r.BaselineDecline[2]
		tmoHold = r.TMODecline[2]
	}
	b.ReportMetric(baseSag, "baseline-rps-endOverStart")
	b.ReportMetric(tmoHold, "tmo-rps-endOverStart")
}

func BenchmarkFigure12FastSlowSSD(b *testing.B) {
	var r experiments.Figure12Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure12(benchCfg(i))
		mustHold(b, r.Claims())
	}
	b.ReportMetric(r.Fast.MeanRPS, "fast-rps")
	b.ReportMetric(r.Slow.MeanRPS, "slow-rps")
	b.ReportMetric(r.Fast.MeanPromotionPS, "fast-promos/s")
	b.ReportMetric(r.Slow.MeanPromotionPS, "slow-promos/s")
}

func BenchmarkFigure13ConfigTuning(b *testing.B) {
	var r experiments.Figure13Result
	for i := 0; i < b.N; i++ {
		r = experiments.Figure13(benchCfg(i))
	}
	b.ReportMetric(r.ConfigA.MeanRPS/r.Baseline.MeanRPS, "configA-rps-ratio")
	b.ReportMetric(r.ConfigB.MeanRPS/r.Baseline.MeanRPS, "configB-rps-ratio")
	b.ReportMetric(r.ConfigB.MeanResident/(1<<20), "configB-resident-MiB")
}

func BenchmarkFigure14WriteRegulation(b *testing.B) {
	var before, after float64
	for i := 0; i < b.N; i++ {
		r := experiments.Figure14(benchCfg(i))
		before, after = r.MeanBefore, r.MeanAfter
	}
	b.ReportMetric(before, "unregulated-B/s")
	b.ReportMetric(after, "regulated-B/s")
}

func BenchmarkAblationReclaimPolicy(b *testing.B) {
	var tmoPaging, legacyPaging float64
	for i := 0; i < b.N; i++ {
		r := experiments.AblationReclaimPolicy(benchCfg(i))
		tmoPaging, legacyPaging = r.TMO.TotalPagingPerSec, r.Legacy.TotalPagingPerSec
	}
	b.ReportMetric(tmoPaging, "tmo-paging/s")
	b.ReportMetric(legacyPaging, "legacy-paging/s")
}

func BenchmarkAblationLimitMode(b *testing.B) {
	var direct float64
	for i := 0; i < b.N; i++ {
		r := experiments.AblationLimitMode(benchCfg(i))
		direct = float64(r.LimitMode.DirectReclaims)
	}
	b.ReportMetric(direct, "limitmode-direct-reclaims")
}

func BenchmarkAblationController(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustHold(b, experiments.AblationController(benchCfg(i)).Claims())
	}
}

func BenchmarkAblationTiered(b *testing.B) {
	var saved float64
	for i := 0; i < b.N; i++ {
		r := experiments.AblationTiered(benchCfg(i))
		saved = r.Tiered.NetSavedMiB
	}
	b.ReportMetric(saved, "tiered-saved-MiB")
}

func BenchmarkBackendSpectrum(b *testing.B) {
	var fastest, slowest float64
	for i := 0; i < b.N; i++ {
		r := experiments.SweepBackends(benchCfg(i))
		mustHold(b, r.Claims())
		fastest = r.Points[0].SavingsFrac
		slowest = r.Points[len(r.Points)-1].SavingsFrac
	}
	b.ReportMetric(100*fastest, "cxl-savings-%")
	b.ReportMetric(100*slowest, "slowssd-savings-%")
}

func BenchmarkAdaptationTimescales(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		r := experiments.Adaptation(benchCfg(i))
		ratio = r.ExpansionFasterBy()
	}
	b.ReportMetric(ratio, "expansion-speedup-x")
}

func BenchmarkAblationReadahead(b *testing.B) {
	var off, on float64
	for i := 0; i < b.N; i++ {
		r := experiments.AblationReadahead(benchCfg(i))
		off, on = r.Off.MajorFaultsPerSec, r.On.MajorFaultsPerSec
	}
	b.ReportMetric(off, "faults/s-noRA")
	b.ReportMetric(on, "faults/s-RA8")
}

func BenchmarkAutoTune(b *testing.B) {
	var static, tuned float64
	for i := 0; i < b.N; i++ {
		r := experiments.AutoTune(benchCfg(i))
		static, tuned = r.StaticSavings, r.TunedSavings
	}
	b.ReportMetric(100*static, "static-savings-%")
	b.ReportMetric(100*tuned, "tuned-savings-%")
}

func BenchmarkAblationLRUQuality(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		r := experiments.AblationLRUQuality(benchCfg(i))
		eff = r.LRUEfficiency()
	}
	b.ReportMetric(100*eff, "lru-vs-oracle-%")
}

func BenchmarkColocation(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		r := experiments.Colocation(benchCfg(i))
		eff = r.TMOEfficiency()
	}
	b.ReportMetric(eff, "tmo-coloc-efficiency")
}

func BenchmarkFleetHeterogeneity(b *testing.B) {
	var oldest, newest float64
	for i := 0; i < b.N; i++ {
		r := experiments.FleetHeterogeneity(benchCfg(i))
		mustHold(b, r.Claims())
		oldest = r.Rows[0].SavingsFrac
		newest = r.Rows[len(r.Rows)-1].SavingsFrac
	}
	b.ReportMetric(100*oldest, "devA-savings-%")
	b.ReportMetric(100*newest, "devG-savings-%")
}

func BenchmarkTableCompression(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		r := experiments.TableCompression(benchCfg(i))
		mustHold(b, r.Claims())
		best = r.Best.PoolBytesPerMiB / 1024
	}
	b.ReportMetric(best, "best-pool-KiB/MiB")
}
