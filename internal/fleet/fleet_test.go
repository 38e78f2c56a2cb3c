package fleet

import (
	"testing"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/senpai"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// fastSenpai converges within test-scale windows.
func fastSenpai() *senpai.Config {
	c := senpai.ConfigA()
	c.ReclaimRatio = 0.005
	return &c
}

func TestSpecNormalize(t *testing.T) {
	s := Spec{App: "feed"}.normalize()
	if s.Device != "C" || s.Weight != 1 || s.Scale != 1 {
		t.Fatalf("defaults not applied: %+v", s)
	}
	want := 2 * workload.MustCatalog("feed").FootprintBytes
	if s.CapacityBytes != want {
		t.Fatalf("capacity default = %d, want %d", s.CapacityBytes, want)
	}

	// Explicit values survive normalization, and the capacity default
	// follows the spec's scale.
	s = Spec{App: "feed", Device: "A", Scale: 0.5, Weight: 3}.normalize()
	if s.Device != "A" || s.Weight != 3 || s.Scale != 0.5 {
		t.Fatalf("explicit fields clobbered: %+v", s)
	}
	scaled := 2 * workload.MustCatalog("feed").Scale(0.5).FootprintBytes
	if s.CapacityBytes != scaled {
		t.Fatalf("scaled capacity default = %d, want %d", s.CapacityBytes, scaled)
	}
	if scaled >= want {
		t.Fatalf("scaling did not shrink the default capacity (%d vs %d)", scaled, want)
	}
}

func TestDeviceCohorts(t *testing.T) {
	if got := (Spec{}).DeviceClass(); got != "C" {
		t.Fatalf("zero-spec device class = %q, want C", got)
	}
	if got := (Spec{Device: "F"}).DeviceClass(); got != "F" {
		t.Fatalf("device class = %q, want F", got)
	}
	specs := []Spec{{Device: "F"}, {}, {Device: "A"}, {Device: "F"}, {Device: "C"}}
	byClass, classes := DeviceCohorts(specs)
	if len(classes) != 3 || classes[0] != "A" || classes[1] != "C" || classes[2] != "F" {
		t.Fatalf("classes = %v, want sorted [A C F]", classes)
	}
	wantBy := map[string][]int{"A": {2}, "C": {1, 4}, "F": {0, 3}}
	for d, want := range wantBy {
		got := byClass[d]
		if len(got) != len(want) {
			t.Fatalf("cohort %s = %v, want %v", d, got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("cohort %s = %v, want %v", d, got, want)
			}
		}
	}
}

// TestDeviceCohortsDegenerateFleets pins the edge shapes the rollout
// control plane feeds DeviceCohorts: empty populations, single-class
// fleets, and device letters outside the catalog.
func TestDeviceCohortsDegenerateFleets(t *testing.T) {
	// Empty population: nothing to slice, nothing to iterate.
	byClass, classes := DeviceCohorts(nil)
	if len(classes) != 0 || len(byClass) != 0 {
		t.Fatalf("empty fleet: classes=%v byClass=%v, want empty", classes, byClass)
	}
	byClass, classes = DeviceCohorts([]Spec{})
	if len(classes) != 0 || len(byClass) != 0 {
		t.Fatalf("zero-length fleet: classes=%v byClass=%v, want empty", classes, byClass)
	}

	// Single-class fleet (all zero specs default to C): one cohort holding
	// every index in population order.
	byClass, classes = DeviceCohorts(make([]Spec, 5))
	if len(classes) != 1 || classes[0] != "C" {
		t.Fatalf("uniform fleet classes = %v, want [C]", classes)
	}
	for i, idx := range byClass["C"] {
		if idx != i {
			t.Fatalf("cohort C = %v, want [0 1 2 3 4]", byClass["C"])
		}
	}
	if len(byClass["C"]) != 5 {
		t.Fatalf("cohort C holds %d hosts, want 5", len(byClass["C"]))
	}

	// A device letter outside the catalog is a cohort key, not an error:
	// cohort slicing never consults the device model table.
	if got := (Spec{Device: "Z"}).DeviceClass(); got != "Z" {
		t.Fatalf("unknown device class = %q, want Z", got)
	}
	byClass, classes = DeviceCohorts([]Spec{{Device: "Z"}, {}, {Device: "Z"}})
	if len(classes) != 2 || classes[0] != "C" || classes[1] != "Z" {
		t.Fatalf("mixed unknown-device classes = %v, want [C Z]", classes)
	}
	if got := byClass["Z"]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("cohort Z = %v, want [0 2]", got)
	}

	// Absent classes read as nil, not a panic — guardrail maps probe
	// classes that may not exist in the current fleet.
	if byClass["A"] != nil {
		t.Fatalf("absent cohort = %v, want nil", byClass["A"])
	}
}

// TestSpecBackendKnobs: Spec.Tiers reaches the host's chain in any swap
// mode, overriding the mode's default layout, and TierSignature keys it in
// the -tiers spelling.
func TestSpecBackendKnobs(t *testing.T) {
	layout := func(sys *core.System) string { return TierSignature(sys.Chain.TierSpecs()) }

	base := Spec{App: "feed", Mode: core.ModeZswap, Seed: 7}
	sysBase, _ := BuildHost(base)
	dram := sysBase.Opts.CapacityBytes
	if got, want := sysBase.Chain.CapacityBytes(), int64(float64(dram)*core.DefaultPoolFrac); got != want {
		t.Fatalf("default zswap pool = %d, want %d", got, want)
	}

	capped := base
	capped.Tiers = []backend.TierSpec{{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: 8 << 20}}
	sysCapped, _ := BuildHost(capped)
	if got := layout(sysCapped); got != "tiers=zstd:8m" {
		t.Fatalf("capped zswap host layout = %q, want tiers=zstd:8m", got)
	}

	ssd := Spec{App: "feed", Mode: core.ModeSSDSwap, Seed: 7,
		Tiers: []backend.TierSpec{{Kind: backend.TierSSD, CapacityBytes: 64 << 20}}}
	sysSSD, _ := BuildHost(ssd)
	if got := layout(sysSSD); got != "tiers=ssd:64m" {
		t.Fatalf("ssd host layout = %q, want tiers=ssd:64m", got)
	}

	if got := TierSignature(nil); got != "" {
		t.Fatalf("default-layout signature = %q, want empty", got)
	}
	if got := TierSignature([]backend.TierSpec{
		{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 2 << 30},
		{Kind: backend.TierSSD},
	}); got != "tiers=lz4:2g,ssd" {
		t.Fatalf("signature = %q, want tiers=lz4:2g,ssd", got)
	}
}

func TestWeightedAppSavings(t *testing.T) {
	ms := []Measurement{
		{Spec: Spec{Weight: 1}, SavingsFrac: 0.20},
		{Spec: Spec{Weight: 3}, SavingsFrac: 0.08},
	}
	approx := func(got, want float64) bool { return got > want-1e-12 && got < want+1e-12 }
	if got := WeightedAppSavings(ms); !approx(got, 0.11) {
		t.Fatalf("weighted app savings = %v, want 0.11", got)
	}
	// Equal weights degrade to the arithmetic mean.
	ms[1].Spec.Weight = 1
	if got := WeightedAppSavings(ms); !approx(got, 0.14) {
		t.Fatalf("equal-weight savings = %v, want 0.14", got)
	}
	if got := WeightedAppSavings(nil); got != 0 {
		t.Fatalf("empty aggregate = %v, want 0", got)
	}
}

func TestMeasureZswapSavings(t *testing.T) {
	m := Measure(Spec{
		App:    "feed",
		Mode:   core.ModeZswap,
		Senpai: fastSenpai(),
		Seed:   100,
	}, 5*vclock.Minute, 5*vclock.Minute)

	if m.SavingsFrac <= 0.03 {
		t.Fatalf("zswap savings = %.1f%%, want positive", 100*m.SavingsFrac)
	}
	if m.SavingsFrac > 0.5 {
		t.Fatalf("zswap savings implausible: %.1f%%", 100*m.SavingsFrac)
	}
	// The decomposition must roughly add up to the total.
	sum := m.AnonSavedFrac + m.FileSavedFrac
	if diff := m.SavingsFrac - sum; diff > 0.02 || diff < -0.02 {
		t.Fatalf("decomposition %v+%v != total %v", m.AnonSavedFrac, m.FileSavedFrac, m.SavingsFrac)
	}
	// Throughput must not collapse.
	if m.RPSRatio < 0.9 {
		t.Fatalf("RPS ratio = %v under mild offloading", m.RPSRatio)
	}
	if m.OOMEvents != 0 {
		t.Fatalf("OOM events during measurement")
	}
	if m.String() == "" {
		t.Fatalf("empty measurement string")
	}
}

func TestMeasureWithTax(t *testing.T) {
	m := Measure(Spec{
		App:     "cache-a",
		Mode:    core.ModeZswap,
		Senpai:  fastSenpai(),
		WithTax: true,
		Seed:    200,
	}, 5*vclock.Minute, 5*vclock.Minute)
	if m.TaxSavingsOfTotal() <= 0 {
		t.Fatalf("tax savings = %v, want positive", m.TaxSavingsOfTotal())
	}
	// Tax footprints are a modest share of the server; savings must be
	// bounded by that share.
	if m.TaxSavingsOfTotal() > 0.5 {
		t.Fatalf("tax savings %v exceed plausibility", m.TaxSavingsOfTotal())
	}
}

func TestWeightedTaxSavings(t *testing.T) {
	ms := []Measurement{
		{Spec: Spec{Weight: 1}, DCTaxSavingsOfTotal: 0.10, MicroTaxSavingsOfTotal: 0.04},
		{Spec: Spec{Weight: 3}, DCTaxSavingsOfTotal: 0.06, MicroTaxSavingsOfTotal: 0.04},
	}
	dc, micro := WeightedTaxSavings(ms)
	if dc != 0.07 {
		t.Fatalf("weighted dc = %v, want 0.07", dc)
	}
	if micro != 0.04 {
		t.Fatalf("weighted micro = %v, want 0.04", micro)
	}
	if d, m2 := WeightedTaxSavings(nil); d != 0 || m2 != 0 {
		t.Fatalf("empty aggregate not zero")
	}
}

func TestClusterSeedsDiffer(t *testing.T) {
	systems := Cluster(Spec{App: "ads-b", Mode: core.ModeSSDSwap, Senpai: fastSenpai(), Seed: 1}, 3, nil)
	if len(systems) != 3 {
		t.Fatalf("cluster size %d", len(systems))
	}
	for _, sys := range systems {
		sys.Run(30 * vclock.Second)
	}
	// Different seeds must produce different trajectories.
	a := systems[0].Server.Apps()[0].Completed()
	b := systems[1].Server.Apps()[0].Completed()
	if a == b {
		t.Fatalf("cluster members identical: %d requests each", a)
	}
}

func TestDefaultMixWeightsSum(t *testing.T) {
	mix := DefaultMix(core.ModeZswap, 7)
	var sum float64
	for _, s := range mix {
		if !s.WithTax {
			t.Fatalf("mix member %s lacks tax sidecars", s.App)
		}
		sum += s.Weight
	}
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("mix weights sum to %v", sum)
	}
}
