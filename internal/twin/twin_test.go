package twin

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"slices"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/senpai"
	"tmo/internal/vclock"
)

func TestAggressivenessAnchorsAndMonotonicity(t *testing.T) {
	a := Aggressiveness(senpai.ConfigA())
	if math.Abs(a-1) > 1e-9 {
		t.Fatalf("Config A aggressiveness = %v, want 1.0", a)
	}

	idle := senpai.ConfigA()
	idle.ReclaimRatio = 0
	if got := Aggressiveness(idle); got != 0 {
		t.Fatalf("idle config aggressiveness = %v, want 0", got)
	}
	if got := Aggressiveness(senpai.Config{}); got != 0 {
		t.Fatalf("zero config aggressiveness = %v, want 0", got)
	}

	// Hotter knobs must map to strictly larger a (until the probe cap binds).
	prev := 0.0
	for _, mult := range []float64{1, 2, 5, 10, 20} {
		c := senpai.ConfigA()
		c.ReclaimRatio *= mult
		got := Aggressiveness(c)
		if got <= prev {
			t.Fatalf("aggressiveness not monotone in ratio: mult %v gave %v after %v", mult, got, prev)
		}
		prev = got
	}

	// Beyond the probe cap, ratio stops mattering but threshold headroom
	// still raises a.
	capped := senpai.ConfigA()
	capped.ReclaimRatio = capped.MaxProbeFrac * 4
	capped2 := capped
	capped2.ReclaimRatio = capped.MaxProbeFrac * 8
	if Aggressiveness(capped) != Aggressiveness(capped2) {
		t.Fatalf("probe cap should clamp ratio: %v vs %v", Aggressiveness(capped), Aggressiveness(capped2))
	}
	hot := capped
	hot.MemPressureThreshold *= 50
	if Aggressiveness(hot) <= Aggressiveness(capped) {
		t.Fatalf("raised threshold should raise aggressiveness")
	}
}

func TestSurfaceEval(t *testing.T) {
	sur := Surface{Rungs: []ProbePoint{
		{A: 0, Response: fleet.Response{Pressure: 0, RPSRatio: 1.0, Savings: 0, FaultP99Us: 100}},
		{A: 10, Response: fleet.Response{Pressure: 0.001, RPSRatio: 0.98, Savings: 0.10, FaultP99Us: 200}},
		{A: 20, Response: fleet.Response{Pressure: 0.005, RPSRatio: 0.90, Savings: 0.30, FaultP99Us: 400}},
	}}

	// Exact rungs evaluate to themselves.
	if got := sur.Eval(10); got.Savings != 0.10 || got.Pressure != 0.001 {
		t.Fatalf("rung eval: got %+v", got)
	}
	// Midpoint interpolates linearly.
	mid := sur.Eval(15)
	if math.Abs(mid.Savings-0.20) > 1e-12 || math.Abs(mid.Pressure-0.003) > 1e-12 ||
		math.Abs(mid.RPSRatio-0.94) > 1e-12 || math.Abs(mid.FaultP99Us-300) > 1e-9 {
		t.Fatalf("midpoint eval: got %+v", mid)
	}
	// Clamped on both ends — hotter than measured stays at the hottest rung.
	if got := sur.Eval(1e9); got.Savings != 0.30 || got.Pressure != 0.005 {
		t.Fatalf("high clamp: got %+v", got)
	}
	if got := sur.Eval(-5); got.Savings != 0 || got.RPSRatio != 1.0 {
		t.Fatalf("low clamp: got %+v", got)
	}
	// Empty surface degrades to a do-nothing host.
	var empty Surface
	if got := empty.Eval(3); got.RPSRatio != 1 || got.Savings != 0 {
		t.Fatalf("empty surface eval: got %+v", got)
	}
}

// vitalsLog formats a twin's advance sequence the way the rollout event log
// would consume it — full float formatting, so any divergence shows.
func vitalsLog(h *Host, windows int) []byte {
	var b bytes.Buffer
	for i := 0; i < windows; i++ {
		v := h.Advance(30 * vclock.Second)
		fmt.Fprintf(&b, "%v %v %v %v %v %v\n",
			v.Pressure, v.RPS, v.OOMKills, v.ResidentBytes, v.SwapStoredBytes, v.FaultP99Us)
	}
	return b.Bytes()
}

func TestHostSeedDeterminism(t *testing.T) {
	sur := Surface{Rungs: []ProbePoint{
		{A: 0, Response: fleet.Response{RPSRatio: 1}},
		{A: 20, Response: fleet.Response{Pressure: 0.004, RPSRatio: 0.95, Savings: 0.2, FaultP99Us: 300, SwapUtil: 0.1, OOMRate: 0.001}},
	}}
	cfg := senpai.ConfigA()
	spec := fleet.Spec{App: "web", Device: "C", Scale: 0.3, Mode: core.ModeZswap, Senpai: &cfg}

	a := vitalsLog(NewHost(spec, sur, 42, Footprint(spec)), 50)
	b := vitalsLog(NewHost(spec, sur, 42, Footprint(spec)), 50)
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced diverging twin vitals logs")
	}
	c := vitalsLog(NewHost(spec, sur, 43, Footprint(spec)), 50)
	if bytes.Equal(a, c) {
		t.Fatalf("different seeds produced identical twin vitals logs")
	}

	// A live config push must not desync two same-seed twins.
	h1, h2 := NewHost(spec, sur, 7, Footprint(spec)), NewHost(spec, sur, 7, Footprint(spec))
	hot := senpai.ConfigB()
	_ = vitalsLog(h1, 5)
	_ = vitalsLog(h2, 5)
	h1.SetSenpaiConfig(hot)
	h2.SetSenpaiConfig(hot)
	if !bytes.Equal(vitalsLog(h1, 20), vitalsLog(h2, 20)) {
		t.Fatalf("config push desynced same-seed twins")
	}
}

func TestHostOOMHazardKeepsStreamAligned(t *testing.T) {
	// Two surfaces identical except for OOM hazard: the hazard-free twin must
	// produce the same pressure/rps/resident stream (the hazard draw is burnt
	// either way), so enabling a hazard never perturbs the other vitals.
	quiet := Surface{Rungs: []ProbePoint{{A: 0, Response: fleet.Response{RPSRatio: 1}}, {A: 20, Response: fleet.Response{Pressure: 0.004, RPSRatio: 0.95, Savings: 0.2}}}}
	hazard := quiet
	hazard.Rungs = append([]ProbePoint(nil), quiet.Rungs...)
	hazard.Rungs[1].OOMRate = 5 // kills nearly every window

	cfg := senpai.ConfigB()
	spec := fleet.Spec{App: "web", Device: "C", Scale: 0.3, Mode: core.ModeZswap, Senpai: &cfg}
	hq := NewHost(spec, quiet, 11, Footprint(spec))
	hh := NewHost(spec, hazard, 11, Footprint(spec))
	for i := 0; i < 30; i++ {
		vq := hq.Advance(30 * vclock.Second)
		vh := hh.Advance(30 * vclock.Second)
		if vq.Pressure != vh.Pressure || vq.RPS != vh.RPS || vq.ResidentBytes != vh.ResidentBytes {
			t.Fatalf("window %d: hazard draw perturbed non-OOM vitals", i)
		}
	}
}

func calSpecs() []fleet.Spec {
	return []fleet.Spec{
		{App: "web", Device: "C", Scale: 0.3},
		{App: "cache-a", Device: "F", Scale: 0.3},
	}
}

func calBaseline() senpai.Config {
	base := senpai.ConfigA()
	base.ReclaimRatio = 0
	return base
}

// TestTwinFidelityRegression is the fidelity gate's regression pin: a fresh
// calibration must hold twin-vs-full drift for every (device class, mode)
// under the stated tolerance on holdout policies between the rungs — and a
// degraded calibration must fail the same gate.
func TestTwinFidelityRegression(t *testing.T) {
	base := calBaseline()
	cs := Calibrate(CalibrateConfig{
		Specs:    calSpecs(),
		Modes:    []core.Mode{core.ModeZswap},
		Baseline: base,
		Probes:   DefaultProbes(base),
		Window:   30 * vclock.Second,
		Seed:     7,
	})

	hold5 := base
	hold5.ReclaimRatio = senpai.ConfigA().ReclaimRatio * 5
	hold20 := base
	hold20.ReclaimRatio = senpai.ConfigA().ReclaimRatio * 20
	fcfg := FidelityConfig{
		Specs:    calSpecs(),
		Modes:    []core.Mode{core.ModeZswap},
		Baseline: base,
		Probes:   []senpai.Config{hold5, hold20},
		Seed:     99,
	}

	rep := CheckFidelity(cs, fcfg)
	if !rep.Pass() {
		t.Fatalf("fresh calibration failed the fidelity gate:\n%s", rep.String())
	}
	if want := len(calSpecs()) * len(fcfg.Modes) * len(fcfg.Probes); len(rep.Rows) != want {
		t.Fatalf("gate checked %d rows, want %d", len(rep.Rows), want)
	}

	// Degrade the calibration: triple every savings rung and inflate fault
	// p99. The same gate must now fail for the affected classes.
	bad := &CoefficientSet{Surfaces: map[string]Surface{}, Window: cs.Window, Seed: cs.Seed}
	for k, sur := range cs.Surfaces {
		rungs := slices.Clone(sur.Rungs)
		for i := range rungs {
			rungs[i].Savings = rungs[i].Savings*3 + 0.15
			rungs[i].FaultP99Us = rungs[i].FaultP99Us*4 + 5000
		}
		bad.Surfaces[k] = Surface{Rungs: rungs, ResidentDriftPerSec: sur.ResidentDriftPerSec}
	}
	if rep := CheckFidelity(bad, fcfg); rep.Pass() {
		t.Fatalf("degraded calibration passed the fidelity gate:\n%s", rep.String())
	}

	// A missing surface fails loudly rather than silently passing.
	missing := &CoefficientSet{Surfaces: map[string]Surface{}, Window: cs.Window}
	if rep := CheckFidelity(missing, fcfg); rep.Pass() {
		t.Fatalf("empty coefficient set passed the fidelity gate")
	}
}

func TestCalibrationDeterminismAndJSONRoundTrip(t *testing.T) {
	base := calBaseline()
	ccfg := CalibrateConfig{
		Specs:    calSpecs(),
		Modes:    []core.Mode{core.ModeZswap},
		Baseline: base,
		Probes:   DefaultProbes(base)[:2],
		Window:   30 * vclock.Second,
		Replicas: 2,
		Seed:     21,
	}
	var buf1, buf2 bytes.Buffer
	if err := Calibrate(ccfg).WriteJSON(&buf1); err != nil {
		t.Fatal(err)
	}
	if err := Calibrate(ccfg).WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf1.Bytes(), buf2.Bytes()) {
		t.Fatalf("same calibration config exported different artifacts")
	}

	cs, err := ReadJSON(bytes.NewReader(buf1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range ccfg.Specs {
		spec.Mode = core.ModeZswap
		sur, ok := cs.Lookup(spec)
		if !ok {
			t.Fatalf("round-tripped artifact missing surface for %s", spec.DeviceClass())
		}
		if len(sur.Rungs) != 3 { // baseline anchor + 2 probes
			t.Fatalf("surface %s has %d rungs, want 3", spec.DeviceClass(), len(sur.Rungs))
		}
		if sur.Rungs[0].Savings != 0 {
			t.Fatalf("anchor rung savings not re-anchored to 0: %v", sur.Rungs[0].Savings)
		}
	}

	if _, err := ReadJSON(bytes.NewReader([]byte(`{"surfaces":{}}`))); err == nil {
		t.Fatalf("ReadJSON accepted an artifact with no surfaces")
	}
}

// lz4SSD is the chain layout "lz4:<pool>,ssd".
func lz4SSD(pool int64) []backend.TierSpec {
	return []backend.TierSpec{
		{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: pool},
		{Kind: backend.TierSSD},
	}
}

// TestArtifactBytesStable pins the artifact format: a coefficient set written
// before Response became ProbePoint's embedded half (testdata, from
// rolloutsim -hosts 4 -scale 0.2 -warm 2 -bake 1 -plan fleet=1 -tier-config
// lz4:64m,ssd -calib-out) must read back and re-export byte for byte.
func TestArtifactBytesStable(t *testing.T) {
	want, err := os.ReadFile("testdata/tier-config-calib.json")
	if err != nil {
		t.Fatal(err)
	}
	cs, err := ReadJSON(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := cs.WriteJSON(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("artifact round trip changed bytes:\n%s", got.String())
	}
	spec := fleet.Spec{Device: "C", Mode: core.ModeTiered, Tiers: lz4SSD(64 << 20)}
	if _, ok := cs.Lookup(spec); !ok {
		t.Fatalf("artifact has no surface for %s", Key(spec))
	}
}

// TestLayoutSurfaces pins layout keying: Calibrate with Tiers fits a surface
// per layout that Lookup finds only under the spec running that layout, the
// gate walks the same layouts, and a layout nobody calibrated has no surface
// (there is no fallback to the default layout's fit).
func TestLayoutSurfaces(t *testing.T) {
	base := calBaseline()
	lz4ssd := lz4SSD(64 << 20)
	cfg := CalibrateConfig{
		Specs:          []fleet.Spec{{App: "web", Device: "C", Scale: 0.2}},
		Modes:          []core.Mode{core.ModeTiered},
		Tiers:          [][]backend.TierSpec{lz4ssd},
		Baseline:       base,
		Probes:         DefaultProbes(base)[3:],
		WarmWindows:    2,
		SettleWindows:  2,
		MeasureWindows: 2,
		Replicas:       1,
		Seed:           3,
	}
	cs := Calibrate(cfg)

	spec := fleet.Spec{Device: "C", Mode: core.ModeTiered}
	plain, ok := cs.Lookup(spec)
	if !ok {
		t.Fatalf("no default-layout surface %s", Key(spec))
	}
	spec.Tiers = lz4ssd
	layout, ok := cs.Lookup(spec)
	if !ok {
		t.Fatalf("no layout surface %s", Key(spec))
	}
	if Key(spec) != "C|tiered|tiers=lz4:64m,ssd" {
		t.Fatalf("layout key %q", Key(spec))
	}
	if reflect.DeepEqual(plain, layout) {
		t.Fatalf("layout surface equals the default-layout surface: %+v", plain)
	}
	spec.Tiers = lz4SSD(32 << 20)
	if _, ok := cs.Lookup(spec); ok {
		t.Fatalf("uncalibrated layout %s resolved to a surface", Key(spec))
	}

	gate := cfg
	gate.Probes = DefaultProbes(base)[1:2]
	gate.Seed = 77
	rep := CheckFidelity(cs, gate)
	if want := len(gate.Specs) * len(gate.Modes) * (1 + len(gate.Tiers)) * len(gate.Probes); len(rep.Rows) != want {
		t.Fatalf("gate checked %d rows, want specs × modes × layouts × probes = %d:\n%s", len(rep.Rows), want, rep)
	}
	if rep.Rows[0].Layout != "" || rep.Rows[1].Layout != "tiers=lz4:64m,ssd" {
		t.Fatalf("gate rows out of layout order:\n%s", rep)
	}
}

// TestWarmWindowsRule pins the warm-up rule twin calibration shares with
// rollout.Config: zero selects 4 windows, and 1 rises to the minimum of 2.
func TestWarmWindowsRule(t *testing.T) {
	for _, tc := range []struct{ in, want int }{{0, 4}, {1, 2}, {2, 2}, {5, 5}} {
		c := CalibrateConfig{
			Specs:       []fleet.Spec{{App: "web", Device: "C"}},
			Modes:       []core.Mode{core.ModeZswap},
			Baseline:    calBaseline(),
			WarmWindows: tc.in,
		}.normalize()
		if c.WarmWindows != tc.want {
			t.Errorf("WarmWindows %d normalised to %d, want %d", tc.in, c.WarmWindows, tc.want)
		}
	}
}

// vitalsSink keeps BenchmarkTwinAdvance's result live.
var vitalsSink fleet.Vitals

// BenchmarkTwinAdvance times one twin window: a surface evaluation, the
// EWMA relax and the jittered vitals. It must not allocate.
func BenchmarkTwinAdvance(b *testing.B) {
	sur := Surface{Rungs: []ProbePoint{
		{A: 0, Response: fleet.Response{RPSRatio: 1}},
		{A: 20, Response: fleet.Response{Pressure: 0.004, RPSRatio: 0.95, Savings: 0.2, FaultP99Us: 300, SwapUtil: 0.1, OOMRate: 0.001}},
	}}
	cfg := senpai.ConfigA()
	spec := fleet.Spec{App: "web", Device: "C", Scale: 0.3, Mode: core.ModeZswap, Senpai: &cfg}
	h := NewHost(spec, sur, 42, Footprint(spec))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vitalsSink = h.Advance(30 * vclock.Second)
	}
}
