package experiments

import (
	"fmt"
	"strings"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/metrics"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// ---------------------------------------------------------------------------
// Figure 1: memory / compressed-memory / SSD cost across hardware
// generations.

// Figure1Result carries the cost-trend model.
type Figure1Result struct {
	Points []backend.CostPoint
}

// Figure1 regenerates the cost-trend figure from the backend cost model.
func Figure1() Figure1Result {
	return Figure1Result{Points: backend.CostTrend()}
}

// Render implements Result.
func (r Figure1Result) Render() string {
	rows := [][]string{{"Generation", "Memory %", "Compressed %", "SSD (iso-capacity) %"}}
	for _, p := range r.Points {
		rows = append(rows, []string{
			p.Generation,
			fmt.Sprintf("%.1f", p.MemoryPct),
			fmt.Sprintf("%.1f", p.CompressedPct),
			fmt.Sprintf("%.2f", p.SSDPct),
		})
	}
	return "Figure 1: cost of memory tiers as % of compute infrastructure\n" + textplot.Table(rows)
}

// ---------------------------------------------------------------------------
// Figure 2: application memory coldness (1/2/5-minute touch sets).

// ColdnessRow is one application's coldness breakdown.
type ColdnessRow struct {
	App   string
	Used1 float64 // touched within the last minute
	Used2 float64 // additionally within two minutes
	Used5 float64 // additionally within five minutes
	Cold  float64 // untouched for over five minutes
}

// Figure2Result carries the seven-application coldness survey.
type Figure2Result struct {
	Rows    []ColdnessRow
	Average ColdnessRow
}

// Figure2Apps lists the applications characterised in the paper's Fig. 2.
var Figure2Apps = []string{"ads-a", "ads-b", "analytics", "feed", "cache-a", "cache-b", "web"}

// Figure2 runs each application alone on an amply provisioned host for
// longer than the five-minute survey window, then histograms page idle
// times exactly like the paper's cold-memory measurement.
func Figure2(cfg Config) Figure2Result {
	runFor := cfg.dur(8*vclock.Minute, 6*vclock.Minute)
	arms := make([]fleet.Arm, len(Figure2Apps))
	for i, name := range Figure2Apps {
		p := cfg.profile(name)
		arms[i] = fleet.Arm{
			Opts: core.Options{
				Mode:          core.ModeOff,
				CapacityBytes: 4 * p.FootprintBytes,
				Seed:          cfg.Seed + uint64(i),
			},
			Services: []workload.Profile{p},
			Measure:  runFor,
		}
	}
	res := Figure2Result{Rows: fleet.RunArms(arms, func(i int, h fleet.Host, _ fleet.Window) ColdnessRow {
		c := h.Server.Manager().Coldness(h.Server.Now(), h.Apps[0].AllPages(),
			[]vclock.Duration{1 * vclock.Minute, 2 * vclock.Minute, 5 * vclock.Minute})
		return ColdnessRow{App: Figure2Apps[i], Used1: c[0], Used2: c[1], Used5: c[2], Cold: c[3]}
	})}
	for _, row := range res.Rows {
		res.Average.Used1 += row.Used1 / float64(len(Figure2Apps))
		res.Average.Used2 += row.Used2 / float64(len(Figure2Apps))
		res.Average.Used5 += row.Used5 / float64(len(Figure2Apps))
		res.Average.Cold += row.Cold / float64(len(Figure2Apps))
	}
	res.Average.App = "average"
	return res
}

// Render implements Result.
func (r Figure2Result) Render() string {
	rows := [][]string{{"App", "Used 1-min", "+2-min", "+5-min", "Cold >5min"}}
	for _, row := range append(append([]ColdnessRow{}, r.Rows...), r.Average) {
		rows = append(rows, []string{
			row.App,
			fmt.Sprintf("%.0f%%", 100*row.Used1),
			fmt.Sprintf("%.0f%%", 100*row.Used2),
			fmt.Sprintf("%.0f%%", 100*row.Used5),
			fmt.Sprintf("%.0f%%", 100*row.Cold),
		})
	}
	return "Figure 2: recently used memory by window (fraction of allocated)\n" + textplot.Table(rows)
}

// ---------------------------------------------------------------------------
// Figure 3: datacenter and microservice memory tax.

// Figure3Result reports the memory-tax characterisation.
type Figure3Result struct {
	DatacenterTaxFrac   float64
	MicroserviceTaxFrac float64
}

// TotalTaxFrac is the combined tax share of server memory.
func (r Figure3Result) TotalTaxFrac() float64 {
	return r.DatacenterTaxFrac + r.MicroserviceTaxFrac
}

// Figure3 measures the resident share of the tax sidecars across the fleet
// mix, with offloading disabled (this is a characterisation, not a savings
// experiment).
func Figure3(cfg Config) Figure3Result {
	mix := fleet.DefaultMix(core.ModeOff, cfg.Seed)
	runFor := cfg.dur(4*vclock.Minute, 2*vclock.Minute)
	dcProf, microProf := cfg.profile("datacenter-tax"), cfg.profile("microservice-tax")
	arms := make([]fleet.Arm, len(mix))
	for i, spec := range mix {
		p := cfg.profile(spec.App)
		arms[i] = fleet.Arm{
			Opts: core.Options{
				Mode:          core.ModeOff,
				CapacityBytes: 2 * p.FootprintBytes,
				Seed:          spec.Seed,
			},
			Services: []workload.Profile{p},
			Measure:  runFor,
			Hook: func(h *fleet.Host) {
				h.Apps = append(h.Apps,
					h.AddProfile(dcProf, cgroup.DatacenterTax),
					h.AddProfile(microProf, cgroup.MicroserviceTax))
			},
		}
	}
	// Each host's weighted datacenter- and microservice-tax shares.
	shares := fleet.RunArms(arms, func(i int, h fleet.Host, _ fleet.Window) [2]float64 {
		capacity := float64(h.Opts.CapacityBytes)
		return [2]float64{
			mix[i].Weight * float64(h.Apps[1].Group.MemoryCurrent()) / capacity,
			mix[i].Weight * float64(h.Apps[2].Group.MemoryCurrent()) / capacity,
		}
	})
	var res Figure3Result
	var wsum float64
	for i, s := range shares {
		res.DatacenterTaxFrac += s[0]
		res.MicroserviceTaxFrac += s[1]
		wsum += mix[i].Weight
	}
	res.DatacenterTaxFrac /= wsum
	res.MicroserviceTaxFrac /= wsum
	return res
}

// Render implements Result.
func (r Figure3Result) Render() string {
	return "Figure 3: memory tax as % of server memory\n" + textplot.Table([][]string{
		{"Component", "Memory %"},
		{"Datacenter tax", fmt.Sprintf("%.1f%%", 100*r.DatacenterTaxFrac)},
		{"Microservice tax", fmt.Sprintf("%.1f%%", 100*r.MicroserviceTaxFrac)},
		{"Total", fmt.Sprintf("%.1f%%", 100*r.TotalTaxFrac())},
	})
}

// ---------------------------------------------------------------------------
// Figure 4: anonymous vs file-backed memory breakdown.

// AnonFileRow is one container's resident-memory composition.
type AnonFileRow struct {
	Name     string
	AnonFrac float64
	FileFrac float64
}

// Figure4Result reports the measured breakdowns.
type Figure4Result struct {
	Rows []AnonFileRow
}

// Figure4Apps lists the containers broken down in the paper's Fig. 4.
var Figure4Apps = []string{
	"datacenter-tax", "microservice-tax",
	"ads-a", "ads-b", "video", "feed", "cache-a", "re", "web",
}

// Figure4 measures each container's resident anonymous/file split after a
// short run under ample memory.
func Figure4(cfg Config) Figure4Result {
	runFor := cfg.dur(2*vclock.Minute, 1*vclock.Minute)
	arms := make([]fleet.Arm, len(Figure4Apps))
	for i, name := range Figure4Apps {
		p := cfg.profile(name)
		// Measure mature containers: lazily-growing apps at their full
		// anonymous footprint.
		if p.AnonGrowth {
			p.InitialAnonFrac = 1
		}
		arms[i] = fleet.Arm{
			Opts: core.Options{
				Mode:          core.ModeOff,
				CapacityBytes: 4 * p.FootprintBytes,
				Seed:          cfg.Seed + uint64(100+i),
			},
			Services: []workload.Profile{p},
			Measure:  runFor,
		}
	}
	return Figure4Result{Rows: fleet.RunArms(arms, func(i int, h fleet.Host, _ fleet.Window) AnonFileRow {
		g := h.Apps[0].Group.MM()
		anon := float64(g.ResidentBytesOf(mm.Anon))
		file := float64(g.ResidentBytesOf(mm.File))
		total := anon + file
		if total == 0 {
			total = 1
		}
		return AnonFileRow{Name: Figure4Apps[i], AnonFrac: anon / total, FileFrac: file / total}
	})}
}

// Render implements Result.
func (r Figure4Result) Render() string {
	rows := [][]string{{"Container", "Anonymous", "File-backed"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%.0f%%", 100*row.AnonFrac),
			fmt.Sprintf("%.0f%%", 100*row.FileFrac),
		})
	}
	return "Figure 4: anonymous vs file-backed memory\n" + textplot.Table(rows)
}

// ---------------------------------------------------------------------------
// Figure 5: SSD device characteristics across the fleet.

// DeviceRow is one SSD generation's characteristics, spec plus measured
// latency percentiles from sampling the device model.
type DeviceRow struct {
	Model             string
	EndurancePTBW     float64
	ReadIOPS          float64
	WriteIOPS         float64
	MeasuredReadP99us float64
	SpecReadP99us     float64
}

// Figure5Result reports the device catalog.
type Figure5Result struct {
	Rows []DeviceRow
	// ZswapP90us is the compressed-memory comparison point (§2.5 quotes
	// ~40us).
	ZswapP90us float64
}

// Figure5 samples every catalog device's read-latency distribution at low
// load and reports it against the spec, plus the zswap load latency for
// contrast.
func Figure5(cfg Config) Figure5Result {
	var res Figure5Result
	samples := 20000
	if cfg.Quick {
		samples = 5000
	}
	for i, spec := range backend.DeviceCatalog {
		dev := backend.NewSSDDevice(spec, cfg.Seed+uint64(200+i))
		now := vclock.Time(0)
		for j := 0; j < samples; j++ {
			dev.Read(now)
			now = now.Add(10 * vclock.Millisecond) // idle pacing
		}
		res.Rows = append(res.Rows, DeviceRow{
			Model:             spec.Model,
			EndurancePTBW:     spec.EndurancePTBW,
			ReadIOPS:          spec.ReadIOPS,
			WriteIOPS:         spec.WriteIOPS,
			MeasuredReadP99us: float64(dev.ReadLatencies().Quantile(0.99)),
			SpecReadP99us:     float64(spec.ReadP99),
		})
	}
	// Zswap contrast point.
	// Each page is loaded right after its store, so the 1 MiB pool bound is
	// never reached.
	z := backend.NewTierChain([]backend.TierSpec{{Kind: backend.TierZswap, Codec: backend.CodecZstd,
		CapacityBytes: 1 << 20}}, nil, 0, cfg.Seed+400)
	var zr metrics.Histogram
	req := []backend.StoreReq{{PageBytes: 4096, CompressRatio: 3}}
	out := make([]backend.StoreResult, 1)
	for j := 0; j < samples; j++ {
		if _, err := z.StoreBatch(0, req, out); err != nil {
			panic(err)
		}
		lr := z.LoadBatch(0, []backend.Handle{out[0].Handle})
		zr.Record(int64(lr.Latency))
	}
	res.ZswapP90us = float64(zr.Quantile(0.90))
	return res
}

// Render implements Result.
func (r Figure5Result) Render() string {
	rows := [][]string{{"Device", "Endurance (pTBW)", "Read IOPS", "Write IOPS", "Read p99 (meas us)", "Read p99 (spec us)"}}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Model,
			fmt.Sprintf("%.1f", row.EndurancePTBW),
			fmt.Sprintf("%.0fk", row.ReadIOPS/1000),
			fmt.Sprintf("%.0fk", row.WriteIOPS/1000),
			fmt.Sprintf("%.0f", row.MeasuredReadP99us),
			fmt.Sprintf("%.0f", row.SpecReadP99us),
		})
	}
	var b strings.Builder
	b.WriteString("Figure 5: SSD characteristics across fleet generations\n")
	b.WriteString(textplot.Table(rows))
	fmt.Fprintf(&b, "compressed memory (zswap/zstd) read p90: %.0f us\n", r.ZswapP90us)
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 7: PSI some/full accounting on the paper's worked example.

// Figure7Result reports the PSI demo's per-quarter accounting.
type Figure7Result struct {
	// QuarterSome/QuarterFull hold stall time accounted per quarter, as a
	// percentage of the whole timeline.
	QuarterSome [4]float64
	QuarterFull [4]float64
}

// Figure7 replays the paper's two-process stall pattern through the real
// PSI tracker. Quarters: (1) disjoint stalls; (2) overlapping stalls;
// (3) one process stalled the whole quarter; (4) both stalled the whole
// first half.
func Figure7() Figure7Result {
	at := func(units float64) vclock.Time { return vclock.Time(units * float64(vclock.Second)) }
	tr := psi.NewTracker(0)
	tr.TaskStart(0)
	tr.TaskStart(0)
	type ev struct {
		t     float64
		start bool
	}
	evs := [][]ev{
		// Q1: A stalls [5, 11.25), B stalls [15, 21.25): 12.5% some.
		{{5, true}, {11.25, false}, {15, true}, {21.25, false}},
		// Q2: A [25, 37.5), B [31.25, 43.75): 18.75% some, 6.25% full.
		{{25, true}, {31.25, true}, {37.5, false}, {43.75, false}},
		// Q3: A stalled the whole quarter [50, 75): 25% some, 0% full.
		{{50, true}, {75, false}},
		// Q4: both stalled [75, 87.5): 12.5% some, 12.5% full.
		{{75, true}, {75, true}, {87.5, false}, {87.5, false}},
	}
	// Replay the events with a sync at every quarter boundary.
	var res Figure7Result
	var someAcc, fullAcc vclock.Duration
	for q := 0; q < 4; q++ {
		for _, e := range evs[q] {
			if e.start {
				tr.StallStart(at(e.t), psi.Memory)
			} else {
				tr.StallStop(at(e.t), psi.Memory)
			}
		}
		tr.Sync(at(25 * float64(q+1)))
		some := tr.Total(psi.Memory, psi.Some) - someAcc
		full := tr.Total(psi.Memory, psi.Full) - fullAcc
		someAcc += some
		fullAcc += full
		// The paper quotes stall shares as percentages of the whole
		// (100-unit) timeline, not of the quarter.
		res.QuarterSome[q] = some.Seconds()
		res.QuarterFull[q] = full.Seconds()
	}
	return res
}

// Render implements Result.
func (r Figure7Result) Render() string {
	rows := [][]string{{"Quarter", "some (% of timeline)", "full (% of timeline)"}}
	for q := 0; q < 4; q++ {
		rows = append(rows, []string{
			fmt.Sprintf("Q%d", q+1),
			fmt.Sprintf("%.2f", r.QuarterSome[q]),
			fmt.Sprintf("%.2f", r.QuarterFull[q]),
		})
	}
	return "Figure 7: PSI some/full accounting on the worked example\n" + textplot.Table(rows)
}

// Compile-time interface checks.
var (
	_ Result = Figure1Result{}
	_ Result = Figure2Result{}
	_ Result = Figure3Result{}
	_ Result = Figure4Result{}
	_ Result = Figure5Result{}
	_ Result = Figure7Result{}
)
