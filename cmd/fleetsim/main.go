// Command fleetsim measures TMO's fleet-wide savings: it runs the default
// application mix (with tax sidecars) as A/B pairs — offloading off vs on —
// and reports per-application and weighted-aggregate savings, the numbers
// behind the paper's Figures 9 and 10.
//
// Usage:
//
//	fleetsim [-mode zswap] [-warm 40m] [-measure 10m] [-scale 0.5] [-seed 7]
//	         [-replicas 3] [-ratio-mult 8] [-calib-in coeffs.json] [-json]
//	         [-tsdb-out series.jsonl] [-dashboard]
//
// -ratio-mult scales Senpai's reclaim ratio so runs converge within the
// given warm-up (the production ratio of 0.0005 sheds only ~0.5%/min; pass
// -ratio-mult 1 for the verbatim production configuration and a
// correspondingly long -warm). -json replaces the tables with a machine-
// readable report of per-application and weighted-aggregate savings.
//
// -calib-in switches to twin-backed measurement: instead of simulating,
// the configured policy is evaluated against the calibration artifact's
// response surfaces (internal/twin), one per device class for the mode and
// -tiers layout the mix runs — an O(1) fleet projection of savings,
// pressure, throughput, and fault latency. A class the artifact has no
// surface for exits 1 naming the missing key.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"tmo/cmd/internal/cliutil"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/senpai"
	"tmo/internal/telemetry"
	"tmo/internal/textplot"
	"tmo/internal/tsdb"
	"tmo/internal/twin"
	"tmo/internal/vclock"
)

// appReport is one application class's measurement in the -json report.
type appReport struct {
	App          string  `json:"app"`
	Weight       float64 `json:"weight"`
	SavingsFrac  float64 `json:"savings_frac"`
	AnonSaved    float64 `json:"anon_saved_frac"`
	FileSaved    float64 `json:"file_saved_frac"`
	RPSRatio     float64 `json:"rps_ratio"`
	FaultP99Us   float64 `json:"fault_p99_us"`
	MemStallP99  float64 `json:"mem_stall_p99_us"`
	Refaults     int64   `json:"refaults"`
	OOMEvents    int64   `json:"oom_events"`
	DCTaxSaved   float64 `json:"dc_tax_saved_of_total"`
	MicroTaxSave float64 `json:"micro_tax_saved_of_total"`
}

// fleetReport is the -json document: per-app rows plus the weighted fleet
// aggregates behind the paper's Figures 9 and 10.
type fleetReport struct {
	Mode              string      `json:"mode"`
	Replicas          int         `json:"replicas"`
	Apps              []appReport `json:"apps"`
	WeightedSavings   float64     `json:"weighted_app_savings_frac"`
	WeightedDCTax     float64     `json:"weighted_dc_tax_savings_frac"`
	WeightedMicroTax  float64     `json:"weighted_micro_tax_savings_frac"`
	WeightedTaxTotals float64     `json:"weighted_tax_savings_frac"`
}

func main() {
	modeStr := flag.String("mode", "zswap", "offload mode: file-only, zswap, ssd, tiered")
	tiersStr := flag.String("tiers", "", `swap tier chain, fastest first, replacing the mode's default layout, e.g. "lz4:2g,zstd:4g,ssd" (a bare ssd gets 4x DRAM)`)
	warmStr := flag.String("warm", "40m", "virtual warm-up before measuring")
	measureStr := flag.String("measure", "10m", "virtual measurement window")
	scale := flag.Float64("scale", 0.5, "workload footprint scale")
	seed := flag.Uint64("seed", 7, "fleet seed")
	replicas := flag.Int("replicas", 1, "independent servers per class (adds P50/P90 columns)")
	ratioMult := flag.Float64("ratio-mult", 8, "multiplier on Senpai's reclaim ratio (1 = production)")
	calibIn := flag.String("calib-in", "", "twin calibration artifact: project the fleet response from surfaces instead of simulating")
	jsonOut := flag.Bool("json", false, "emit per-app and aggregate savings as JSON instead of tables")
	tsdbOut := flag.String("tsdb-out", "", "scrape each server's telemetry into a time-series file (.csv for CSV, else JSON Lines)")
	dashboard := flag.Bool("dashboard", false, "print a summary table of the scraped series")
	flag.Parse()

	mode := cliutil.MustMode("fleetsim", *modeStr)
	warm := cliutil.MustDuration("fleetsim", "warm", *warmStr)
	measure := cliutil.MustDuration("fleetsim", "measure", *measureStr)
	if err := checkFlags(*replicas); err != nil {
		cliutil.Fatal("fleetsim", err)
	}

	mix := fleet.DefaultMix(mode, *seed)
	if *tiersStr != "" {
		if mode == core.ModeOff || mode == core.ModeFileOnly {
			cliutil.Fatal("fleetsim", fmt.Errorf("-tiers requires a swap mode (got %s)", mode))
		}
		tiers := cliutil.MustTierSpec("fleetsim", *tiersStr)
		for i := range mix {
			mix[i].Tiers = tiers
		}
	}
	sc := senpai.ConfigA()
	sc.ReclaimRatio *= *ratioMult

	if *calibIn != "" {
		f, err := os.Open(*calibIn)
		if err != nil {
			cliutil.Fatal("fleetsim", err)
		}
		coeffs, err := twin.ReadJSON(f)
		f.Close()
		if err != nil {
			cliutil.Fatal("fleetsim", err)
		}
		projectFromTwin(coeffs, mix, mode, sc, *jsonOut)
		return
	}
	if !*jsonOut {
		fmt.Printf("fleetsim: %d server classes x %d replicas, mode %s, warm %v + measure %v per A/B side\n\n",
			len(mix), *replicas, mode, warm, measure)
	}

	// Expand the mix class-major into per-replica specs, measure the whole
	// population over the fleet worker pool, and report per class.
	var specs []fleet.Spec
	for _, spec := range mix {
		spec.Scale = *scale
		spec.Senpai = &sc
		for r := 0; r < *replicas; r++ {
			rs := spec
			rs.Seed = spec.Seed + uint64(r)*7919
			// Weight is per class: spread it across the replicas so the
			// fleet aggregate stays correct.
			rs.Weight = spec.Weight / float64(*replicas)
			specs = append(specs, rs)
		}
	}
	// With observability on, scrape every server's registry as its
	// measurement completes on the worker pool; series identities come from
	// the spec, so the store's contents are deterministic either way.
	var db *tsdb.DB
	obs := fleet.Observer(nil)
	if *tsdbOut != "" || *dashboard {
		db = tsdb.New(tsdb.Config{})
		sc := &tsdb.Scraper{DB: db}
		end := vclock.Time(0).Add(warm + measure)
		obs = func(i int, s fleet.Spec, snap telemetry.Snapshot) {
			sc.ScrapeSnapshot(end, []telemetry.Label{
				{Key: "host", Value: fmt.Sprintf("host-%d", i)},
				{Key: "app", Value: s.App},
				{Key: "device", Value: s.DeviceClass()},
			}, snap)
		}
	}
	ms := fleet.MeasureAll(specs, warm, measure, obs)
	if *tsdbOut != "" {
		cliutil.MustExportSeries("fleetsim", *tsdbOut, db)
	}
	dc, micro := fleet.WeightedTaxSavings(ms)
	appSavings := fleet.WeightedAppSavings(ms)

	if *jsonOut {
		report := fleetReport{
			Mode:              mode.String(),
			Replicas:          *replicas,
			WeightedSavings:   appSavings,
			WeightedDCTax:     dc,
			WeightedMicroTax:  micro,
			WeightedTaxTotals: dc + micro,
		}
		for _, m := range ms {
			report.Apps = append(report.Apps, appReport{
				App:          m.Spec.App,
				Weight:       m.Spec.Weight,
				SavingsFrac:  m.SavingsFrac,
				AnonSaved:    m.AnonSavedFrac,
				FileSaved:    m.FileSavedFrac,
				RPSRatio:     m.RPSRatio,
				FaultP99Us:   m.FaultLatencyP99Us,
				MemStallP99:  m.MemStallP99Us,
				Refaults:     m.Refaults,
				OOMEvents:    m.OOMEvents,
				DCTaxSaved:   m.DCTaxSavingsOfTotal,
				MicroTaxSave: m.MicroTaxSavingsOfTotal,
			})
		}
		cliutil.EmitJSON("fleetsim", report)
		return
	}

	for c := 0; c < len(mix); c++ {
		classMeas := ms[c**replicas : (c+1)**replicas]
		fmt.Println(classMeas[0])
		if *replicas > 1 {
			var savings []float64
			for _, m := range classMeas {
				savings = append(savings, m.SavingsFrac)
			}
			sort.Float64s(savings)
			fmt.Printf("  across %d replicas: savings P50 %.1f%%  P90 %.1f%%\n",
				*replicas, 100*savings[len(savings)/2], 100*savings[(len(savings)*9)/10])
		}
	}

	fmt.Println()
	fmt.Print(telemetryTable(ms))

	fmt.Printf("\nweighted application savings: %.1f%% of resident memory\n", 100*appSavings)
	fmt.Printf("weighted tax savings: datacenter %.1f%% + microservice %.1f%% = %.1f%% of server memory\n",
		100*dc, 100*micro, 100*(dc+micro))
	if *dashboard {
		fmt.Printf("\nscraped series:\n%s", tsdb.Summary(db))
	}
}

// twinProjection is one device class's analytical response in the
// -calib-in -json report.
type twinProjection struct {
	Device         string  `json:"device"`
	Weight         float64 `json:"weight"`
	SavingsFrac    float64 `json:"savings_frac"`
	MemPressure    float64 `json:"mem_pressure"`
	RPSRatio       float64 `json:"rps_ratio"`
	FaultP99Us     float64 `json:"fault_p99_us"`
	SwapUtil       float64 `json:"swap_util"`
	OOMRatePerHour float64 `json:"oom_rate_per_hour"`
}

// projectFromTwin evaluates the configured policy against the calibration
// artifact's response surfaces: one row per device class in the mix, plus
// the weight-aggregated fleet savings. O(1) per class — no simulation.
func projectFromTwin(coeffs *twin.CoefficientSet, mix []fleet.Spec, mode core.Mode, sc senpai.Config, jsonOut bool) {
	a := twin.Aggressiveness(sc)
	byClass := map[string]*twinProjection{}
	var order []string
	for _, s := range mix {
		d := s.DeviceClass()
		p, ok := byClass[d]
		if !ok {
			sur, found := coeffs.Lookup(s)
			if !found {
				cliutil.Fatal("fleetsim", fmt.Errorf("calibration has no surface for %s — recalibrate covering this class, mode and layout", twin.Key(s)))
			}
			pt := sur.Eval(a)
			p = &twinProjection{
				Device:         d,
				SavingsFrac:    pt.Savings,
				MemPressure:    pt.Pressure,
				RPSRatio:       pt.RPSRatio,
				FaultP99Us:     pt.FaultP99Us,
				SwapUtil:       pt.SwapUtil,
				OOMRatePerHour: pt.OOMRate * 3600,
			}
			byClass[d] = p
			order = append(order, d)
		}
		p.Weight += s.Weight
	}
	sort.Strings(order)

	var weighted, totalW float64
	rows := make([]twinProjection, 0, len(order))
	for _, d := range order {
		p := byClass[d]
		weighted += p.SavingsFrac * p.Weight
		totalW += p.Weight
		rows = append(rows, *p)
	}
	if totalW > 0 {
		weighted /= totalW
	}

	if jsonOut {
		cliutil.EmitJSON("fleetsim", struct {
			Mode            string           `json:"mode"`
			Aggressiveness  float64          `json:"aggressiveness"`
			Classes         []twinProjection `json:"classes"`
			WeightedSavings float64          `json:"weighted_savings_frac"`
		}{mode.String(), a, rows, weighted})
		return
	}
	fmt.Printf("fleetsim: twin projection at aggressiveness %.1f on %s (no simulation)\n\n", a, mode)
	table := [][]string{{"device", "weight", "savings", "psi", "rps", "fault p99 µs", "swap util", "oom/h"}}
	for _, p := range rows {
		table = append(table, []string{
			p.Device,
			fmt.Sprintf("%.2f", p.Weight),
			fmt.Sprintf("%.1f%%", 100*p.SavingsFrac),
			fmt.Sprintf("%.4f", p.MemPressure),
			fmt.Sprintf("%.3f", p.RPSRatio),
			fmt.Sprintf("%.4g", p.FaultP99Us),
			fmt.Sprintf("%.2f", p.SwapUtil),
			fmt.Sprintf("%.3g", p.OOMRatePerHour),
		})
	}
	fmt.Print(textplot.Table(table))
	fmt.Printf("\nweighted projected savings: %.1f%% of resident memory\n", 100*weighted)
}

// telemetryTable renders the per-server pressure/latency view pulled from
// each TMO run's telemetry registry, plus a savings bar chart.
func telemetryTable(ms []fleet.Measurement) string {
	rows := [][]string{{"app", "savings", "rps", "fault p50 µs", "fault p99 µs", "mem-stall p99 µs", "refaults", "ooms"}}
	var labels []string
	var savings []float64
	for _, m := range ms {
		rows = append(rows, []string{
			m.Spec.App,
			fmt.Sprintf("%.1f%%", 100*m.SavingsFrac),
			fmt.Sprintf("%.2f", m.RPSRatio),
			fmt.Sprintf("%.4g", m.FaultLatencyP50Us),
			fmt.Sprintf("%.4g", m.FaultLatencyP99Us),
			fmt.Sprintf("%.4g", m.MemStallP99Us),
			fmt.Sprintf("%d", m.Refaults),
			fmt.Sprintf("%d", m.OOMEvents),
		})
		labels = append(labels, m.Spec.App)
		savings = append(savings, 100*m.SavingsFrac)
	}
	return textplot.Table(rows) + "\n" +
		textplot.Bar("resident-memory savings by class (%)", labels, savings, 40)
}

// checkFlags rejects the flag values no measurement can run with: every
// server class needs at least one replica.
func checkFlags(replicas int) error {
	if replicas < 1 {
		return fmt.Errorf("bad -replicas: need at least 1 server per class, got %d", replicas)
	}
	return nil
}
