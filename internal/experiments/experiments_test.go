package experiments

import (
	"strings"
	"testing"

	"tmo/internal/vclock"
)

// All experiment tests run in Quick mode; they assert the *shapes* the paper
// reports, not absolute values (see EXPERIMENTS.md for the full-scale runs).

var cfg = Config{Quick: true, Seed: 42}

// claimer is a result that states claims.
type claimer interface {
	Result
	Claims() []Claim
}

// TestClaims checks every claim a result states; the shape tests assert
// what the claims do not.
func TestClaims(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() claimer
	}{
		{"fig12", func() claimer { return Figure12(cfg) }},
		{"table51", func() claimer { return TableCompression(cfg) }},
		{"abl-controller", func() claimer { return AblationController(cfg) }},
		{"spectrum", func() claimer { return SweepBackends(cfg) }},
		{"fleet-het", func() claimer { return FleetHeterogeneity(cfg) }},
		{"rollout", func() claimer { return RolloutScorecard(cfg) }},
		{"policy", func() claimer { return PolicyScorecard(cfg) }},
		{"twinscale", func() claimer { return twinScale(cfg, 2000) }}, // the 100k-host fleet is the CLI's
		{"placement", func() claimer { return PlacementScorecard(cfg) }},
		{"abl-batch", func() claimer { return AblationBatch(cfg) }},
		{"tco", func() claimer { return TCO(cfg) }},
		{"protection", func() claimer { return Protection(cfg) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := tc.run()
			for _, c := range r.Claims() {
				if !c.Holds {
					t.Errorf("claim %q fails (margin %g)", c.Name, c.Margin)
				}
			}
			if t.Failed() {
				t.Log(r.Render())
			}
		})
	}
}

// TestControllerClaimsReadTheCells: the controller ablation's verdicts are
// claims over its cells, so a g-swap whose depth differs by half across
// devices fails the device-blind claim and the render does not assert it.
func TestControllerClaimsReadTheCells(t *testing.T) {
	r := AblationControllerResult{Cells: []ControllerCell{
		{Controller: "senpai", Device: "C", SavingsFrac: 0.30},
		{Controller: "senpai", Device: "B", SavingsFrac: 0.10},
		{Controller: "gswap", Device: "C", SavingsFrac: 0.20},
		{Controller: "gswap", Device: "B", SavingsFrac: 0.10},
	}}
	blind, adapts := r.Claims()[0], r.Claims()[1]
	if blind.Holds || blind.Margin >= 0 {
		t.Errorf("device-blind claim holds on a 50%% gap: %+v", blind)
	}
	if !adapts.Holds {
		t.Errorf("senpai claim fails on a 3x gap: %+v", adapts)
	}
	if strings.Contains(r.Render(), "device-blind") {
		t.Errorf("render asserts a verdict:\n%s", r.Render())
	}
}

func TestFigure1Shape(t *testing.T) {
	r := Figure1()
	if len(r.Points) != 6 {
		t.Fatalf("generations = %d", len(r.Points))
	}
	// DRAM cost grows toward a third of server cost; iso-capacity SSD
	// stays under 1%.
	if r.Points[5].MemoryPct != 33 {
		t.Errorf("final DRAM share = %v", r.Points[5].MemoryPct)
	}
	for _, p := range r.Points {
		if p.SSDPct >= 1 || p.CompressedPct >= p.MemoryPct || p.SSDPct >= p.CompressedPct {
			t.Errorf("cost ordering violated at %s: %+v", p.Generation, p)
		}
	}
	if !strings.Contains(r.Render(), "Gen 6") {
		t.Errorf("render missing generations")
	}
}

func TestFigure2Shape(t *testing.T) {
	r := Figure2(cfg)
	if len(r.Rows) != 7 {
		t.Fatalf("apps = %d", len(r.Rows))
	}
	byApp := map[string]ColdnessRow{}
	for _, row := range r.Rows {
		byApp[row.App] = row
		// Sanity: fractions form a distribution.
		sum := row.Used1 + row.Used2 + row.Used5 + row.Cold
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("%s coldness sums to %v", row.App, sum)
		}
	}
	// Paper: Cache B is the hottest (81% active in 5 min); Web the
	// coldest (38% active).
	active5 := func(r ColdnessRow) float64 { return r.Used1 + r.Used2 + r.Used5 }
	if active5(byApp["cache-b"]) < active5(byApp["web"]) {
		t.Errorf("cache-b (%v) must be hotter than web (%v)",
			active5(byApp["cache-b"]), active5(byApp["web"]))
	}
	if byApp["cache-b"].Cold > 0.30 {
		t.Errorf("cache-b cold = %v, want < 0.30", byApp["cache-b"].Cold)
	}
	if byApp["web"].Cold < 0.35 {
		t.Errorf("web cold = %v, want > 0.35", byApp["web"].Cold)
	}
	// Paper: average cold memory ~35%.
	if r.Average.Cold < 0.20 || r.Average.Cold > 0.50 {
		t.Errorf("average cold = %v, want ~0.35", r.Average.Cold)
	}
}

func TestFigure3Shape(t *testing.T) {
	r := Figure3(cfg)
	// Paper: ~13% datacenter tax, ~7% microservice tax, ~20% total.
	if r.DatacenterTaxFrac < 0.08 || r.DatacenterTaxFrac > 0.20 {
		t.Errorf("datacenter tax = %v, want ~0.13", r.DatacenterTaxFrac)
	}
	if r.MicroserviceTaxFrac < 0.04 || r.MicroserviceTaxFrac > 0.12 {
		t.Errorf("microservice tax = %v, want ~0.07", r.MicroserviceTaxFrac)
	}
	if r.DatacenterTaxFrac <= r.MicroserviceTaxFrac {
		t.Errorf("datacenter tax must exceed microservice tax")
	}
	if r.TotalTaxFrac() < 0.15 || r.TotalTaxFrac() > 0.30 {
		t.Errorf("total tax = %v, want ~0.20", r.TotalTaxFrac())
	}
}

func TestFigure4Shape(t *testing.T) {
	r := Figure4(cfg)
	byName := map[string]AnonFileRow{}
	for _, row := range r.Rows {
		byName[row.Name] = row
		if row.AnonFrac+row.FileFrac < 0.99 || row.AnonFrac+row.FileFrac > 1.01 {
			t.Errorf("%s split sums to %v", row.Name, row.AnonFrac+row.FileFrac)
		}
	}
	// The breakdown varies wildly (the paper's point): caches are
	// anon-heavy, video is file-heavy.
	if byName["cache-a"].AnonFrac < 0.7 {
		t.Errorf("cache-a anon = %v, want anon-heavy", byName["cache-a"].AnonFrac)
	}
	if byName["video"].FileFrac < 0.5 {
		t.Errorf("video file = %v, want file-heavy", byName["video"].FileFrac)
	}
}

func TestFigure5Shape(t *testing.T) {
	r := Figure5(cfg)
	if len(r.Rows) != 7 {
		t.Fatalf("devices = %d", len(r.Rows))
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].EndurancePTBW <= r.Rows[i-1].EndurancePTBW {
			t.Errorf("endurance not improving at %s", r.Rows[i].Model)
		}
	}
	// Measured p99 must track spec within 15%.
	for _, row := range r.Rows {
		ratio := row.MeasuredReadP99us / row.SpecReadP99us
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s measured p99 %v vs spec %v", row.Model, row.MeasuredReadP99us, row.SpecReadP99us)
		}
	}
	// §2.5: compressed memory p90 ~40us, an order of magnitude below any
	// SSD's p99.
	if r.ZswapP90us < 20 || r.ZswapP90us > 80 {
		t.Errorf("zswap p90 = %v us, want ~40", r.ZswapP90us)
	}
}

func TestFigure7MatchesPaper(t *testing.T) {
	r := Figure7()
	want := [4][2]float64{{12.5, 0}, {18.75, 6.25}, {25, 0}, {12.5, 12.5}}
	for q := 0; q < 4; q++ {
		if r.QuarterSome[q] != want[q][0] || r.QuarterFull[q] != want[q][1] {
			t.Errorf("Q%d: some=%v full=%v, want %v", q+1, r.QuarterSome[q], r.QuarterFull[q], want[q])
		}
	}
}

func TestFigure8ControlLaw(t *testing.T) {
	r := Figure8(cfg)
	if len(r.Pressure.Points) < 10 {
		t.Fatalf("too few controller actions recorded: %d", len(r.Pressure.Points))
	}
	// Whenever tracked pressure was at/above threshold, the control law
	// must have requested zero reclaim.
	if r.HighPressureZeroReclaim != r.HighPressureIntervals {
		t.Errorf("reclaim issued at/above threshold: %d of %d intervals",
			r.HighPressureIntervals-r.HighPressureZeroReclaim, r.HighPressureIntervals)
	}
	// Steady state holds pressure in the threshold's vicinity, not way
	// above it.
	last := r.Pressure.Points[len(r.Pressure.Points)/2:]
	for _, p := range last {
		if p.V > 20*r.Threshold {
			t.Errorf("pressure %v runaway vs threshold %v", p.V, r.Threshold)
		}
	}
}

func TestFigure9Shape(t *testing.T) {
	r := Figure9(cfg)
	if len(r.Rows) != len(Figure9ZswapApps)+len(Figure9SSDApps) {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		// Every application must show real savings without a throughput
		// collapse (the paper reports no noticeable degradation).
		if row.SavingsFrac < 0.05 {
			t.Errorf("%s (%v): savings %.1f%% too small", row.App, row.Backend, 100*row.SavingsFrac)
		}
		if row.SavingsFrac > 0.45 {
			t.Errorf("%s (%v): savings %.1f%% implausible", row.App, row.Backend, 100*row.SavingsFrac)
		}
		if row.RPSRatio < 0.95 {
			t.Errorf("%s: RPS ratio %v", row.App, row.RPSRatio)
		}
		if row.OOMEvents != 0 {
			t.Errorf("%s: OOM events during offloading", row.App)
		}
	}
}

func TestFigure10Shape(t *testing.T) {
	r := Figure10(cfg)
	// Paper: 9% datacenter + 4% microservice = 13% of server memory.
	if r.DCTaxSavings < 0.03 {
		t.Errorf("datacenter tax savings = %v, want substantial", r.DCTaxSavings)
	}
	if r.MicroTaxSavings < 0.01 {
		t.Errorf("microservice tax savings = %v, want positive", r.MicroTaxSavings)
	}
	if r.DCTaxSavings <= r.MicroTaxSavings {
		t.Errorf("dc savings (%v) must exceed microservice savings (%v)", r.DCTaxSavings, r.MicroTaxSavings)
	}
	if r.TotalTaxSavings() > r.DCTaxFracBefore+r.MicroTaxFracBefore {
		t.Errorf("savings exceed the tax itself")
	}
}

func TestFigure11Shape(t *testing.T) {
	r := Figure11(cfg)
	// Baseline sags badly in every phase (memory-bound throttling).
	for i := 0; i < 3; i++ {
		if r.BaselineDecline[i] > 0.8 {
			t.Errorf("phase %d: baseline did not sag (%v)", i+1, r.BaselineDecline[i])
		}
	}
	// The TMO tier sags identically in phase 1 (offloading disabled) and
	// holds in the offloading phases.
	if r.TMODecline[0] > 0.8 {
		t.Errorf("phase 1 TMO tier should match baseline, got %v", r.TMODecline[0])
	}
	for i := 1; i < 3; i++ {
		if r.TMODecline[i] < 0.85 {
			t.Errorf("phase %d (%v): TMO RPS sagged to %v", i+1, r.PhaseModes[i], r.TMODecline[i])
		}
	}
	// Offloading phases run at lower resident memory than the baseline.
	for i := 1; i < 3; i++ {
		if r.TMOResidentByPhase[i] >= r.BaselineResident {
			t.Errorf("phase %d resident %v not below baseline %v", i+1, r.TMOResidentByPhase[i], r.BaselineResident)
		}
	}
}

func TestFigure12Shape(t *testing.T) {
	r := Figure12(cfg)
	// The fast device sustains deeper offloading: more swap, less
	// resident.
	if r.Fast.MeanSwapBytes <= r.Slow.MeanSwapBytes {
		t.Errorf("fast swap %v <= slow swap %v", r.Fast.MeanSwapBytes, r.Slow.MeanSwapBytes)
	}
	if r.Fast.MeanResident >= r.Slow.MeanResident {
		t.Errorf("fast resident %v >= slow resident %v", r.Fast.MeanResident, r.Slow.MeanResident)
	}
	// Device latency gap shows in the p90 panel.
	if r.Fast.MeanReadP90ms >= r.Slow.MeanReadP90ms {
		t.Errorf("fast p90 %v >= slow p90 %v", r.Fast.MeanReadP90ms, r.Slow.MeanReadP90ms)
	}
}

func TestFigure13Shape(t *testing.T) {
	r := Figure13(cfg)
	// Config B saves the most memory...
	if !(r.ConfigB.MeanResident < r.ConfigA.MeanResident && r.ConfigA.MeanResident < r.Baseline.MeanResident) {
		t.Errorf("resident ordering wrong: base=%v A=%v B=%v",
			r.Baseline.MeanResident, r.ConfigA.MeanResident, r.ConfigB.MeanResident)
	}
	// ...but regresses RPS, while Config A tracks the baseline.
	if r.ConfigA.MeanRPS < 0.97*r.Baseline.MeanRPS {
		t.Errorf("config A RPS %v not neutral vs baseline %v", r.ConfigA.MeanRPS, r.Baseline.MeanRPS)
	}
	if r.ConfigB.MeanRPS > 0.95*r.Baseline.MeanRPS {
		t.Errorf("config B RPS %v did not regress vs baseline %v", r.ConfigB.MeanRPS, r.Baseline.MeanRPS)
	}
	// Config B's damage shows as sustained IO pressure and a hollowed
	// file cache with elevated SSD reads (§4.4's diagnosis).
	if r.ConfigB.MeanIOP <= r.ConfigA.MeanIOP {
		t.Errorf("config B io pressure %v not above config A %v", r.ConfigB.MeanIOP, r.ConfigA.MeanIOP)
	}
	if r.ConfigB.MeanFileCache >= r.ConfigA.MeanFileCache {
		t.Errorf("config B file cache %v not below config A %v", r.ConfigB.MeanFileCache, r.ConfigA.MeanFileCache)
	}
	if r.ConfigB.MeanFSReads <= r.Baseline.MeanFSReads {
		t.Errorf("config B SSD reads %v not above baseline %v", r.ConfigB.MeanFSReads, r.Baseline.MeanFSReads)
	}
}

func TestFigure14Shape(t *testing.T) {
	r := Figure14(cfg)
	if r.BudgetBytesPerSec <= 0 {
		t.Fatalf("no budget computed")
	}
	// Regulation must reduce the cluster write rate substantially...
	if r.MeanAfter >= r.MeanBefore*0.7 {
		t.Errorf("regulation ineffective: %v -> %v B/s", r.MeanBefore, r.MeanAfter)
	}
	// ...and hold it near the budget (modulation, not shutdown).
	if r.MeanAfter < r.BudgetBytesPerSec*0.3 {
		t.Errorf("regulation overshot to %v vs budget %v", r.MeanAfter, r.BudgetBytesPerSec)
	}
	if r.MeanAfter > r.BudgetBytesPerSec*3 {
		t.Errorf("regulated rate %v far above budget %v", r.MeanAfter, r.BudgetBytesPerSec)
	}
}

func TestTableCompressionShape(t *testing.T) {
	r := TableCompression(cfg)
	if len(r.Rows) != 9 {
		t.Fatalf("combinations = %d", len(r.Rows))
	}
	// lz4 decompresses faster than zstd even though it packs worse.
	var zstdLoad, lz4Load float64
	for _, row := range r.Rows {
		if row.Allocator == "zsmalloc" {
			switch row.Codec {
			case "zstd":
				zstdLoad = row.MeanLoadUs
			case "lz4":
				lz4Load = row.MeanLoadUs
			}
		}
	}
	if lz4Load >= zstdLoad {
		t.Errorf("lz4 load %v not faster than zstd %v", lz4Load, zstdLoad)
	}
}

func TestRendersNonEmpty(t *testing.T) {
	// Cheap smoke over every Render implementation.
	for _, r := range []Result{
		Figure1(), Figure7(),
		Figure5(Config{Quick: true, Seed: 1}),
		TableCompression(Config{Quick: true, Seed: 1}),
	} {
		out := r.Render()
		if len(out) < 40 || !strings.Contains(out, "\n") {
			t.Errorf("render too small: %q", out)
		}
	}
}

func TestConfigHelpers(t *testing.T) {
	full := Config{}
	quick := Config{Quick: true}
	if full.dur(10*vclock.Minute, vclock.Minute) != 10*vclock.Minute {
		t.Errorf("full dur wrong")
	}
	if quick.dur(10*vclock.Minute, vclock.Minute) != vclock.Minute {
		t.Errorf("quick dur wrong")
	}
	if full.scale() != 1.0 || quick.scale() != 0.5 {
		t.Errorf("scales wrong")
	}
	if quick.profile("feed").FootprintBytes >= full.profile("feed").FootprintBytes {
		t.Errorf("quick profile not scaled down")
	}
}
