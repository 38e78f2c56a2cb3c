package experiments

import (
	"fmt"
	"strings"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/dist"
	"tmo/internal/fleet"
	"tmo/internal/metrics"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
)

// senpai returns a Senpai configuration with the production control law
// but a larger reclaim ratio, so quick-scale experiments converge within
// their shortened windows. Full-scale runs use the production ratio.
func (c Config) senpai(base senpai.Config) *senpai.Config {
	if c.Quick {
		base.ReclaimRatio *= 16
	}
	return &base
}

// ---------------------------------------------------------------------------
// Figure 8: Senpai pressure tracking and reclaim-volume tuning.

// Figure8Result carries the controller-dynamics demo series.
type Figure8Result struct {
	// Pressure is the cgroup's windowed memory some-pressure at each
	// Senpai interval; Reclaim is the volume requested at the same
	// instants (bytes).
	Pressure, Reclaim *metrics.Series
	// Threshold is the configured pressure threshold, for the overlay.
	Threshold float64
	// Correlated counts intervals where pressure above threshold coincided
	// with zero reclaim, and vice versa; used to verify the control law.
	HighPressureZeroReclaim int
	HighPressureIntervals   int
}

// Figure8 runs one workload under Senpai and records the controller's view:
// tracked pressure against the volume it chose to reclaim.
func Figure8(cfg Config) Figure8Result {
	sys := core.New(core.Options{
		Mode:          core.ModeZswap,
		CapacityBytes: 2 * cfg.profile("feed").FootprintBytes,
		Senpai:        cfg.senpai(senpai.ConfigA()),
		Seed:          cfg.Seed,
	})
	app := sys.AddWorkload("feed")

	res := Figure8Result{
		Pressure:  &metrics.Series{Name: "memory pressure"},
		Reclaim:   &metrics.Series{Name: "reclaim volume"},
		Threshold: sys.Senpai.Config().MemPressureThreshold,
	}
	var lastRuns int64
	sys.Server.OnTick(func(now vclock.Time) {
		if runs := sys.Senpai.Runs(); runs != lastRuns {
			lastRuns = runs
			act := sys.Senpai.LastAction(app.Group)
			res.Pressure.Record(now, act.MemPressure)
			res.Reclaim.Record(now, float64(act.Requested))
			if act.MemPressure >= res.Threshold {
				res.HighPressureIntervals++
				if act.Requested == 0 {
					res.HighPressureZeroReclaim++
				}
			}
		}
	})
	sys.Run(cfg.dur(60*vclock.Minute, 20*vclock.Minute))
	return res
}

// Render implements Result.
func (r Figure8Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 8: Senpai PSI tracking and reclaim volume\n")
	b.WriteString(textplot.Chart("memory pressure (fraction of time)", []*metrics.Series{r.Pressure.Downsample(64)}, 64, 8))
	b.WriteString(textplot.Chart("reclaim volume (bytes/interval)", []*metrics.Series{r.Reclaim.Downsample(64)}, 64, 8))
	fmt.Fprintf(&b, "pressure threshold: %.4f; intervals at/above threshold: %d (zero reclaim in %d)\n",
		r.Threshold, r.HighPressureIntervals, r.HighPressureZeroReclaim)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 9: per-application memory savings by backend.

// SavingsRow is one application's measured savings.
type SavingsRow struct {
	App     string
	Backend core.Mode
	fleet.Measurement
}

// Figure9Result carries the eight-application savings comparison.
type Figure9Result struct {
	Rows []SavingsRow
}

// Figure9ZswapApps lists the applications offloaded to compressed memory in
// the paper's Fig. 9 (well-compressible data).
var Figure9ZswapApps = []string{"web", "warehouse", "feed", "ads-b", "re"}

// Figure9SSDApps lists the applications offloaded to SSD (quantized model
// data with poor compressibility, §4.1).
var Figure9SSDApps = []string{"ads-a", "ads-c", "ml", "reader"}

// Figure9 measures A/B savings for each application on its production
// backend assignment.
func Figure9(cfg Config) Figure9Result {
	// The production reclaim ratio sheds ~0.5%/min, so reaching the cold
	// equilibrium takes over an hour of virtual time at full scale; quick
	// mode boosts the ratio 8x and shortens the windows accordingly.
	warm := cfg.dur(2*vclock.Hour+30*vclock.Minute, 16*vclock.Minute)
	measure := cfg.dur(30*vclock.Minute, 5*vclock.Minute)
	var specs []fleet.Spec
	add := func(names []string, mode core.Mode) {
		for i, name := range names {
			specs = append(specs, fleet.Spec{
				App:    name,
				Mode:   mode,
				Scale:  cfg.scale(),
				Senpai: cfg.senpai(senpai.ConfigA()),
				Seed:   cfg.Seed + uint64(500+i),
			})
		}
	}
	add(Figure9ZswapApps, core.ModeZswap)
	add(Figure9SSDApps, core.ModeSSDSwap)
	var res Figure9Result
	for _, m := range fleet.MeasureAll(specs, warm, measure) {
		res.Rows = append(res.Rows, SavingsRow{App: m.Spec.App, Backend: m.Spec.Mode, Measurement: m})
	}
	return res
}

// Render implements Result.
func (r Figure9Result) Render() string {
	rows := [][]string{{"App", "Backend", "Savings", "Anon", "File", "RPS ratio"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.App,
			row.Backend.String(),
			fmt.Sprintf("%.1f%%", 100*row.SavingsFrac),
			fmt.Sprintf("%.1f%%", 100*row.AnonSavedFrac),
			fmt.Sprintf("%.1f%%", 100*row.FileSavedFrac),
			fmt.Sprintf("%.2f", row.RPSRatio),
		})
	}
	return "Figure 9: memory savings normalized to resident size\n" + textplot.Table(rows)
}

// ---------------------------------------------------------------------------
// Figure 10: datacenter and microservice tax savings.

// Figure10Result carries the fleet-wide tax-savings aggregate.
type Figure10Result struct {
	// Before/after tax shares, as fractions of server memory.
	DCTaxFracBefore, MicroTaxFracBefore float64
	// Savings as fractions of server memory (the paper reports 9% + 4%).
	DCTaxSavings, MicroTaxSavings float64
}

// TotalTaxSavings is the combined savings fraction.
func (r Figure10Result) TotalTaxSavings() float64 { return r.DCTaxSavings + r.MicroTaxSavings }

// Figure10 runs the fleet mix with tax sidecars under zswap offloading and
// aggregates weighted tax savings.
func Figure10(cfg Config) Figure10Result {
	warm := cfg.dur(2*vclock.Hour+30*vclock.Minute, 16*vclock.Minute)
	measure := cfg.dur(30*vclock.Minute, 4*vclock.Minute)
	mix := fleet.DefaultMix(core.ModeZswap, cfg.Seed)
	if cfg.Quick {
		mix = mix[:4]
	}
	for i := range mix {
		mix[i].Senpai = cfg.senpai(senpai.ConfigA())
		mix[i].Scale = cfg.scale()
	}
	ms := fleet.MeasureAll(mix, warm, measure)
	dc, micro := fleet.WeightedTaxSavings(ms)

	// Characterise the before shares from the same mix.
	char := Figure3(Config{Quick: true, Seed: cfg.Seed})
	return Figure10Result{
		DCTaxFracBefore:    char.DatacenterTaxFrac,
		MicroTaxFracBefore: char.MicroserviceTaxFrac,
		DCTaxSavings:       dc,
		MicroTaxSavings:    micro,
	}
}

// Render implements Result.
func (r Figure10Result) Render() string {
	return "Figure 10: memory tax savings (% of server memory)\n" + textplot.Table([][]string{
		{"Component", "w/o TMO", "savings w/ TMO"},
		{"Datacenter tax", fmt.Sprintf("%.1f%%", 100*r.DCTaxFracBefore), fmt.Sprintf("%.1f%%", 100*r.DCTaxSavings)},
		{"Microservice tax", fmt.Sprintf("%.1f%%", 100*r.MicroTaxFracBefore), fmt.Sprintf("%.1f%%", 100*r.MicroTaxSavings)},
		{"Total", fmt.Sprintf("%.1f%%", 100*(r.DCTaxFracBefore+r.MicroTaxFracBefore)), fmt.Sprintf("%.1f%%", 100*r.TotalTaxSavings())},
	})
}

// ---------------------------------------------------------------------------
// §5.1 table: codec and pool-allocator selection for zswap.

// CompressionRow is one codec x allocator combination's outcome.
type CompressionRow struct {
	Codec, Allocator string
	// PoolBytesPerMiB is pool DRAM consumed per MiB of offloaded memory.
	PoolBytesPerMiB float64
	// MeanLoadUs is the mean decompression (load) latency.
	MeanLoadUs float64
}

// TableCompressionResult carries the §5.1 selection study.
type TableCompressionResult struct {
	Rows []CompressionRow
	// Best is the combination with the smallest pool footprint, which the
	// production deployment selected (zstd + zsmalloc).
	Best CompressionRow
}

// TableCompression stores a mixed-compressibility page population through
// every codec/allocator combination, reproducing the §5.1 selection of zstd
// and zsmalloc.
func TableCompression(cfg Config) TableCompressionResult {
	codecs := []backend.Codec{backend.CodecZstd, backend.CodecLz4, backend.CodecLzo}
	allocs := []backend.Allocator{backend.AllocZsmalloc, backend.AllocZ3fold, backend.AllocZbud}
	// A mixed page population: fleet-representative compressibilities.
	ratios := []float64{4.0, 3.0, 3.0, 2.5, 2.0, 1.4, 1.3}
	pages := 7000
	if cfg.Quick {
		pages = 1400
	}

	var res TableCompressionResult
	req := make([]backend.StoreReq, 1)
	out := make([]backend.StoreResult, 1)
	for _, c := range codecs {
		for _, a := range allocs {
			// Each page is loaded right after its store, so the pool never
			// holds more than one page; the bound is never reached.
			z := backend.NewZswap(c, a, 1<<20, cfg.Seed+600)
			r := metrics.NewReservoir(4096, dist.NewRand(cfg.Seed+601).Int64N)
			var stored int64
			for i := 0; i < pages; i++ {
				req[0] = backend.StoreReq{PageBytes: 4096, CompressRatio: ratios[i%len(ratios)]}
				if _, err := z.StoreBatch(0, req, out); err != nil {
					panic(err)
				}
				stored += out[0].StoredBytes
				lr := z.LoadBatch(0, []backend.Handle{out[0].Handle})
				r.Add(float64(lr.Latency))
			}
			row := CompressionRow{
				Codec:           c.Name,
				Allocator:       a.Name,
				PoolBytesPerMiB: float64(stored) / float64(pages*4096) * (1 << 20),
				MeanLoadUs:      r.Mean(),
			}
			res.Rows = append(res.Rows, row)
			if res.Best.Codec == "" || row.PoolBytesPerMiB < res.Best.PoolBytesPerMiB {
				res.Best = row
			}
		}
	}
	return res
}

// Render implements Result.
func (r TableCompressionResult) Render() string {
	rows := [][]string{{"Codec", "Allocator", "Pool KiB per offloaded MiB", "Mean load (us)"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Codec, row.Allocator,
			fmt.Sprintf("%.0f", row.PoolBytesPerMiB/1024),
			fmt.Sprintf("%.1f", row.MeanLoadUs),
		})
	}
	return "Section 5.1: zswap codec and pool-allocator selection\n" + textplot.Table(rows) +
		fmt.Sprintf("best (production choice): %s + %s\n", r.Best.Codec, r.Best.Allocator)
}

// Compile-time interface checks.
var (
	_ Result = Figure8Result{}
	_ Result = Figure9Result{}
	_ Result = Figure10Result{}
	_ Result = TableCompressionResult{}
)
