package rollout

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/chaos"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/trace"
	"tmo/internal/tsdb"
	"tmo/internal/twin"
	"tmo/internal/vclock"
)

// testCoeffs calibrates twin surfaces for the two-class twin test fleet
// once per test binary (calibration is a pile of full simulations).
var (
	calOnce sync.Once
	calCS   *twin.CoefficientSet
)

func testCoeffs() *twin.CoefficientSet {
	calOnce.Do(func() {
		base := idleBaseline()
		calCS = twin.Calibrate(twin.CalibrateConfig{
			Specs: []fleet.Spec{
				{App: "web", Device: "C", Scale: 0.3},
				{App: "cache-a", Device: "F", Scale: 0.3},
			},
			Modes:    []core.Mode{core.ModeZswap},
			Baseline: base,
			Probes:   twin.DefaultProbes(base),
			Window:   30 * vclock.Second,
			Seed:     7,
		})
	})
	return calCS
}

// twinFleet builds a two-class population sized for twin-layout tests. The
// class alternates in pairs (C,C,F,F,...) so it is decoupled from host-index
// parity — a K=2 candidate race round-robins by index, and every candidate
// cohort must span both device classes.
func twinFleet(n int) []fleet.Spec {
	out := make([]fleet.Spec, n)
	for i := range out {
		app, dev := "web", "C"
		if i%4 >= 2 {
			app, dev = "cache-a", "F"
		}
		out[i] = fleet.Spec{App: app, Device: dev, Scale: 0.3, Mode: core.ModeZswap, Seed: 5000 + uint64(i)*77}
	}
	return out
}

func twinConfig(cands ...Policy) Config {
	return Config{
		Hosts:         twinFleet(60),
		Baseline:      baselinePolicy(),
		Candidates:    cands,
		Plan:          []Stage{{Name: "canary", Frac: 0.1, Bake: 3}, {Name: "fleet", Frac: 0.9, Bake: 3}},
		Guardrails:    testGuardrails(),
		Window:        30 * vclock.Second,
		WarmWindows:   2,
		SettleWindows: 1,
		Workers:       8,
		Seed:          99,
		Twin:          &TwinConfig{Coeffs: testCoeffs()},
	}
}

func TestFidelityLayout(t *testing.T) {
	cfg := twinConfig(safePolicy()).normalize()
	byDev, devs := fleet.DeviceCohorts(cfg.Hosts)
	layout := fidelityLayout(cfg, byDev, devs)
	if len(devs) != 2 {
		t.Fatalf("test fleet has %d device classes, want 2", len(devs))
	}
	for _, d := range devs {
		idxs := byDev[d]
		full, twins := 0, 0
		for pos, i := range idxs {
			switch fidelities[layout[i]] {
			case fleet.FidelityFull:
				full++
				if pos >= fullHead && pos < len(idxs)-fullTail {
					t.Fatalf("class %s: middle host %d (pos %d) is full-fidelity", d, i, pos)
				}
			case fleet.FidelityTwin:
				twins++
				if pos < fullHead || pos >= len(idxs)-fullTail {
					t.Fatalf("class %s: head/tail host %d (pos %d) is a twin", d, i, pos)
				}
			}
		}
		if full != fullHead+fullTail {
			t.Fatalf("class %s: %d full hosts, want %d", d, full, fullHead+fullTail)
		}
		if twins != len(idxs)-full {
			t.Fatalf("class %s: %d twins, want %d", d, twins, len(idxs)-full)
		}
	}

	// A class too small to thin out stays entirely full-fidelity.
	small := twinConfig(safePolicy())
	small.Hosts = twinFleet(6) // 3 per class <= fullHead+fullTail
	small = small.normalize()
	byDev, devs = fleet.DeviceCohorts(small.Hosts)
	for i, f := range fidelityLayout(small, byDev, devs) {
		if fidelities[f] != fleet.FidelityFull {
			t.Fatalf("small class host %d assigned %s, want full", i, fidelities[f])
		}
	}

	// Without Twin the whole fleet is full-fidelity.
	plain := testConfig(safePolicy()).normalize()
	byDev, devs = fleet.DeviceCohorts(plain.Hosts)
	for i, f := range fidelityLayout(plain, byDev, devs) {
		if fidelities[f] != fleet.FidelityFull {
			t.Fatalf("non-twin host %d assigned %s", i, fidelities[f])
		}
	}
}

// TestTwinRolloutDeterminism pins the two-fidelity acceptance guarantee:
// the same config and seed produce a byte-identical event log over a mixed
// full/twin fleet, including under the worker pool.
func TestTwinRolloutDeterminism(t *testing.T) {
	r1 := New(twinConfig(safePolicy())).Run()
	r2 := New(twinConfig(safePolicy())).Run()
	if r1.EventLog() != r2.EventLog() {
		t.Fatalf("twin rollout event logs diverge:\n--- run 1\n%s\n--- run 2\n%s", r1.EventLog(), r2.EventLog())
	}
	if r1.TwinHosts == 0 || r1.FullHosts == 0 {
		t.Fatalf("fleet not mixed-fidelity: %d full, %d twin", r1.FullHosts, r1.TwinHosts)
	}
	if r1.TwinHosts <= r1.FullHosts {
		t.Fatalf("twin layout should put the long tail on twins: %d full, %d twin", r1.FullHosts, r1.TwinHosts)
	}
	if !r1.Completed() {
		t.Fatalf("safe twin rollout ended %s; log:\n%s", r1.State, r1.EventLog())
	}
	// twinFleet alternates its two device classes in pairs, so each class's
	// full-fidelity head and tail span twice as many host indices.
	for _, h := range r1.Hosts {
		want := fleet.FidelityFull
		if h.Index >= 2*fullHead && h.Index < len(r1.Hosts)-2*fullTail {
			want = fleet.FidelityTwin
		}
		if h.Fidelity != want {
			t.Fatalf("host %d fidelity %s, want %s", h.Index, h.Fidelity, want)
		}
	}
}

// TestTwinRolloutGuardrailTrip drives a safe-vs-aggressive race over the
// mixed fleet: guardrails judged on twin-majority cohorts must still drop
// the aggressive candidate and promote the safe one.
func TestTwinRolloutGuardrailTrip(t *testing.T) {
	safe := safePolicy()
	safe.Name = "safe"
	hot := aggressivePolicy()
	hot.Name = "hot"
	cfg := twinConfig(safe, hot)
	// Tighter PSI budget than the stock 0.005: twin cohorts approach the
	// calibrated steady state through the EWMA, so the stage-cumulative mean
	// lags the target; 0.002 still clears the safe candidate by an order of
	// magnitude.
	g := testGuardrails()
	g.MaxMemPressure = 0.002
	cfg.Guardrails = g
	cfg.Plan = []Stage{{Name: "canary", Frac: 0.2, Bake: 6}, {Name: "fleet", Frac: 0.9, Bake: 4}}

	r := New(cfg).Run()
	if !r.Completed() || r.Promoted != "safe" {
		t.Fatalf("state=%s promoted=%q, want completed/safe; log:\n%s", r.State, r.Promoted, r.EventLog())
	}
	var hotOut CandidateOutcome
	for _, c := range r.Candidates {
		if c.Policy == "hot" {
			hotOut = c
		}
	}
	if !hotOut.Dropped && len(hotOut.ExcludedDevices) == 0 {
		t.Fatalf("aggressive candidate survived every twin cohort; log:\n%s", r.EventLog())
	}
	if hotOut.Tripped == "" {
		t.Fatalf("dropped candidate records no guardrail")
	}
}

// TestTwinMissingSurfacePanics pins the construction-time check: a twin
// fleet whose calibration lacks a surface for any spec a twin host could be
// pushed — an uncalibrated mode, or an uncalibrated chain layout, which no
// longer falls back to the mode's default-layout fit — must refuse to build
// and name the missing key.
func TestTwinMissingSurfacePanics(t *testing.T) {
	otherMode := safePolicy()
	otherMode.Mode = core.ModeSSDSwap // calibration covers zswap only
	otherLayout := safePolicy()
	otherLayout.Tiers = []backend.TierSpec{
		{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 64 << 20},
		{Kind: backend.TierSSD},
	}
	for _, tc := range []struct {
		pol  Policy
		want string
	}{
		{otherMode, "no surface for C|ssd"},
		{otherLayout, "no surface for C|zswap|tiers=lz4:64m,ssd"},
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("New accepted a twin fleet with no surface for %q", tc.want)
				}
				if !strings.Contains(r.(string), tc.want) {
					t.Fatalf("panic %q does not name %q", r, tc.want)
				}
			}()
			New(twinConfig(tc.pol))
		}()
	}
}

// TestTwinDriftAdvisesRecalibration pins the recalibration trigger: a
// twin-drift burn alert (the |full − twin| pressure-gap monitor firing) must
// surface as standing recalibration advice — counter, decision-log event,
// and Result field — while a healthy calibration advises nothing.
func TestTwinDriftAdvisesRecalibration(t *testing.T) {
	// A calibration gone stale: every pressure rung reads 0.01 above what
	// the full-fidelity anchors show, five times the stock twin-drift budget.
	stale := &twin.CoefficientSet{Surfaces: map[string]twin.Surface{}, Window: testCoeffs().Window}
	for k, sur := range testCoeffs().Surfaces {
		rungs := slices.Clone(sur.Rungs)
		for i := range rungs {
			rungs[i].Pressure += 0.01
		}
		stale.Surfaces[k] = twin.Surface{Rungs: rungs, ResidentDriftPerSec: sur.ResidentDriftPerSec}
	}
	cfg, _ := obsConfig(twinConfig(safePolicy()))
	cfg.Twin.Coeffs = stale
	c := New(cfg)
	r := c.Run()
	if r.RecalibrationAdvised == 0 {
		t.Fatalf("drifting twins produced no recalibration advice; log:\n%s", r.EventLog())
	}
	found := false
	for _, e := range r.Events {
		if e.Cat == trace.KindRolloutRecalib {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no %s event in log:\n%s", trace.KindRolloutRecalib, r.EventLog())
	}
	if got, _ := c.Telemetry().Snapshot().Get("rollout.recalib_advised"); int64(got.Value) != r.RecalibrationAdvised {
		t.Fatalf("counter and Result disagree")
	}
	if !strings.Contains(r.Render(), "twin recalibration advised") {
		t.Fatalf("advice missing from scorecard:\n%s", r.Render())
	}

	// A healthy calibration under the stock tolerance advises nothing.
	healthy, _ := obsConfig(twinConfig(safePolicy()))
	rh := New(healthy).Run()
	if rh.RecalibrationAdvised != 0 {
		t.Fatalf("healthy run advised %d recalibrations; log:\n%s",
			rh.RecalibrationAdvised, rh.EventLog())
	}
}

// churnedTwinRace is a safe-vs-hot race over the two-fidelity fleet with the
// observability plane on: the hot candidate changes the offload mode, so its
// pushes and its drop rebuild hosts, and a treated anchor crashes and
// rejoins mid-race. The tiered surfaces alias the zswap fits, which is
// enough for a run that only has to exercise every path.
func churnedTwinRace(workers int) (Config, *tsdb.DB) {
	safe := safePolicy()
	safe.Name = "safe"
	hot := aggressivePolicy()
	hot.Name = "hot"
	hot.Mode = core.ModeTiered
	cfg := twinConfig(safe, hot)
	cs := *testCoeffs()
	cs.Surfaces = maps.Clone(cs.Surfaces)
	for k, sur := range testCoeffs().Surfaces {
		cs.Surfaces[strings.Replace(k, "|zswap", "|tiered", 1)] = sur
	}
	cfg.Twin = &TwinConfig{Coeffs: &cs}
	cfg.Guardrails.MaxMemPressure = 0.002
	cfg.Plan = []Stage{{Name: "canary", Frac: 0.2, Bake: 6}, {Name: "fleet", Frac: 0.9, Bake: 4}}
	cfg.Workers = workers
	cfg.Crashes = []Crash{{
		Host:     1,
		Schedule: chaos.Schedule{At: vclock.Time(4 * cfg.Window), Dur: 2 * cfg.Window},
	}}
	return obsConfig(cfg)
}

// TestWorkerCountChangesNothing pins that the worker pool's size never
// reaches the outputs: the churned two-fidelity race on one worker and on
// eight yields the same event log, scorecard, TSDB export and flight
// bundles.
func TestWorkerCountChangesNothing(t *testing.T) {
	run := func(workers int) string {
		cfg, db := churnedTwinRace(workers)
		r := New(cfg).Run()
		log := r.EventLog()
		if r.Rebuilds() == 0 || !strings.Contains(log, "candidate dropped") ||
			!strings.Contains(log, string(trace.KindHostRejoin)) {
			t.Fatalf("workers=%d: race did not rebuild, drop and rejoin; log:\n%s", workers, log)
		}
		return log + r.Render() + exportAll(t, db, r)
	}
	if one, eight := run(1), run(8); one != eight {
		lo, le := strings.Split(one, "\n"), strings.Split(eight, "\n")
		for i := range min(len(lo), len(le)) {
			if lo[i] != le[i] {
				t.Fatalf("outputs diverge at line %d:\n1 worker:  %s\n8 workers: %s", i+1, lo[i], le[i])
			}
		}
		t.Fatalf("outputs differ in length: %d vs %d lines", len(lo), len(le))
	}
}

// BenchmarkRolloutAdvance times one window of advance over a warmed
// 2048-host two-fidelity fleet, its full-fidelity anchors taken down so
// the run times the twins' fan-out over the worker pool alone.
func BenchmarkRolloutAdvance(b *testing.B) {
	cfg := twinConfig(safePolicy())
	cfg.Hosts = twinFleet(2048)
	cfg.Workers = 2
	c := New(cfg)
	for _, h := range c.full {
		h.down = true
	}
	c.up = slices.DeleteFunc(c.up, func(h *host) bool { return h.down })
	for range cfg.WarmWindows {
		c.advance()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.advance()
	}
}
