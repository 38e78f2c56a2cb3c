package rollout

import (
	"math"
	"slices"
	"strings"
	"testing"

	"tmo/internal/chaos"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/senpai"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// testFleet is a small mixed population; host order matters (stages enroll
// a prefix), so the canary app differs from the tail apps.
func testFleet(n int) []fleet.Spec {
	apps := []string{"feed", "cache-a", "ads-b", "web", "analytics", "cache-b"}
	out := make([]fleet.Spec, n)
	for i := range out {
		out[i] = fleet.Spec{
			App:  apps[i%len(apps)],
			Mode: core.ModeZswap,
			Seed: 1000 + uint64(i)*77,
		}
	}
	return out
}

// idleBaseline is ConfigA with reclaim disabled: hosts run unoffloaded
// until the rollout pushes a candidate, so treated-vs-control savings are
// attributable to the candidate alone.
func idleBaseline() senpai.Config {
	c := senpai.ConfigA()
	c.ReclaimRatio = 0
	return c
}

// safeCandidate converges within test-scale windows while respecting
// ConfigA's pressure threshold.
func safeCandidate() senpai.Config {
	c := senpai.ConfigA()
	c.ReclaimRatio = 0.005
	return c
}

// aggressiveCandidate is the ConfigB shape taken further: it tolerates far
// more pressure and probes much harder, so the treated cohort settles well
// above the PSI guardrail.
func aggressiveCandidate() senpai.Config {
	c := safeCandidate()
	c.ReclaimRatio *= 12
	c.MemPressureThreshold *= 50
	c.IOPressureThreshold *= 10
	// ConfigA's probe cap (1%/interval) bounds the pressure any ratio can
	// induce; a genuinely dangerous config raises it too.
	c.MaxProbeFrac *= 5
	return c
}

func baselinePolicy() Policy {
	return Policy{Name: "baseline", Mode: core.ModeZswap, Config: idleBaseline()}
}

func safePolicy() Policy {
	return Policy{Name: "candidate", Mode: core.ModeZswap, Config: safeCandidate()}
}

func aggressivePolicy() Policy {
	return Policy{Name: "candidate", Mode: core.ModeZswap, Config: aggressiveCandidate()}
}

func testGuardrails() Guardrails {
	return Guardrails{
		MaxMemPressure:       0.005,
		MaxRPSDip:            0.25,
		MaxOOMKills:          0,
		SwapUtilizationLatch: 0.95,
		MaxSwapLatched:       0,
	}
}

func testConfig(candidate Policy) Config {
	return Config{
		Hosts:         testFleet(4),
		Baseline:      baselinePolicy(),
		Candidates:    []Policy{candidate},
		Plan:          []Stage{{Name: "canary", Frac: 0.25, Bake: 3}, {Name: "fleet", Frac: 1.0, Bake: 3}},
		Guardrails:    testGuardrails(),
		Window:        30 * vclock.Second,
		WarmWindows:   2,
		SettleWindows: 1,
		Seed:          42,
	}
}

// TestGuardrailsCheck pins the trip ordering (oom > psi > rps > swap) and
// the asymmetric zero semantics: zero thresholds disable, zero counts
// tolerate none, and negative (Unlimited) counts disable.
func TestGuardrailsCheck(t *testing.T) {
	g := testGuardrails()
	zero := Guardrails{}
	off := Guardrails{MaxOOMKills: Unlimited, MaxSwapLatched: Unlimited}
	cases := []struct {
		name  string
		g     Guardrails
		stats CohortStats
		want  string
	}{
		{"healthy", g, CohortStats{Hosts: 2, MemPressure: 0.001, RPSRatio: 0.99}, ""},
		{"no evidence passes", g, CohortStats{Hosts: 0, MemPressure: 1, RPSRatio: 0, OOMKills: 9}, ""},
		{"psi overshoot", g, CohortStats{Hosts: 2, MemPressure: 0.02, RPSRatio: 1}, "psi"},
		{"rps dip", g, CohortStats{Hosts: 2, MemPressure: 0.001, RPSRatio: 0.5}, "rps"},
		{"swap latch", g, CohortStats{Hosts: 2, MemPressure: 0.001, RPSRatio: 1, SwapLatched: 1}, "swap"},
		// Trip ordering: the most severe signal names the verdict.
		{"oom outranks psi", g, CohortStats{Hosts: 2, MemPressure: 0.02, RPSRatio: 1, OOMKills: 1}, "oom"},
		{"psi outranks rps", g, CohortStats{Hosts: 2, MemPressure: 0.02, RPSRatio: 0.5}, "psi"},
		{"rps outranks swap", g, CohortStats{Hosts: 2, MemPressure: 0.001, RPSRatio: 0.5, SwapLatched: 1}, "rps"},
		// Zero-value bundle: thresholds are disabled, counts tolerate none.
		{"zero psi disabled", zero, CohortStats{Hosts: 2, MemPressure: 0.9, RPSRatio: 1}, ""},
		{"zero rps disabled", zero, CohortStats{Hosts: 2, RPSRatio: 0.01}, ""},
		{"zero oom tolerates none", zero, CohortStats{Hosts: 2, RPSRatio: 1, OOMKills: 1}, "oom"},
		{"zero latch tolerates none", zero, CohortStats{Hosts: 2, RPSRatio: 1, SwapLatched: 1}, "swap"},
		// Unlimited disables the count checks explicitly.
		{"unlimited oom disabled", off, CohortStats{Hosts: 2, RPSRatio: 1, OOMKills: 99}, ""},
		{"unlimited latch disabled", off, CohortStats{Hosts: 2, RPSRatio: 1, SwapLatched: 99}, ""},
	}
	for _, tc := range cases {
		got, detail := tc.g.Check(tc.stats)
		if got != tc.want {
			t.Errorf("%s: Check = %q (%s), want %q", tc.name, got, detail, tc.want)
		}
		if got != "" && detail == "" {
			t.Errorf("%s: tripped without detail", tc.name)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	mustPanic := func(name string, cfg Config) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: normalize did not panic", name)
			}
		}()
		cfg.normalize()
	}
	oneHost := []fleet.Spec{{App: "feed", Mode: core.ModeZswap}}
	mustPanic("no hosts", Config{})
	mustPanic("no candidates", Config{Hosts: oneHost, Baseline: baselinePolicy()})
	mustPanic("baseline missing mode", Config{
		Hosts:      oneHost,
		Baseline:   Policy{Config: idleBaseline()},
		Candidates: []Policy{safePolicy()},
	})
	mustPanic("baseline zero-interval config", Config{
		Hosts:      oneHost,
		Baseline:   Policy{Mode: core.ModeZswap},
		Candidates: []Policy{safePolicy()},
	})
	mustPanic("candidate missing mode", Config{
		Hosts:      oneHost,
		Baseline:   baselinePolicy(),
		Candidates: []Policy{{Config: safeCandidate()}},
	})
	mustPanic("candidate zero-interval config", Config{
		Hosts:      oneHost,
		Baseline:   baselinePolicy(),
		Candidates: []Policy{{Mode: core.ModeTiered}},
	})
	mustPanic("duplicate policy names", Config{
		Hosts:      testFleet(4),
		Baseline:   baselinePolicy(),
		Candidates: []Policy{safePolicy(), safePolicy()},
	})
	mustPanic("candidate named like baseline", Config{
		Hosts:      oneHost,
		Baseline:   baselinePolicy(),
		Candidates: []Policy{{Name: "baseline", Mode: core.ModeZswap, Config: safeCandidate()}},
	})
	mustPanic("more candidates than hosts", Config{
		Hosts:      oneHost,
		Baseline:   baselinePolicy(),
		Candidates: []Policy{safePolicy(), {Name: "c2", Mode: core.ModeZswap, Config: safeCandidate()}},
	})
	mustPanic("shrinking plan", Config{
		Hosts: oneHost, Baseline: baselinePolicy(), Candidates: []Policy{safePolicy()},
		Plan: []Stage{{Name: "a", Frac: 0.5}, {Name: "b", Frac: 0.2}},
	})
	mustPanic("zero-frac stage", Config{
		Hosts: oneHost, Baseline: baselinePolicy(), Candidates: []Policy{safePolicy()},
		Plan: []Stage{{Name: "a", Frac: 0}},
	})
	mustPanic("over-unity stage", Config{
		Hosts: oneHost, Baseline: baselinePolicy(), Candidates: []Policy{safePolicy()},
		Plan: []Stage{{Name: "a", Frac: 1.5}},
	})
	mustPanic("crash out of range", Config{
		Hosts: oneHost, Baseline: baselinePolicy(), Candidates: []Policy{safePolicy()},
		Crashes: []Crash{{Host: 5}},
	})
	mustPanic("empty device-guardrail key", Config{
		Hosts: oneHost, Baseline: baselinePolicy(), Candidates: []Policy{safePolicy()},
		DeviceGuardrails: map[string]Guardrails{"": DefaultGuardrails()},
	})

	got := Config{
		Hosts:      oneHost,
		Baseline:   Policy{Mode: core.ModeZswap, Config: idleBaseline()},
		Candidates: []Policy{{Mode: core.ModeZswap, Config: safeCandidate()}},
	}.normalize()
	if len(got.Plan) != len(DefaultPlan()) || got.Guardrails != DefaultGuardrails() {
		t.Fatalf("defaults not applied: %+v", got)
	}
	if got.Window != 30*vclock.Second || got.WarmWindows != 4 || got.Workers != 4 {
		t.Fatalf("scalar defaults not applied: %+v", got)
	}
	if got.Baseline.Name != "baseline" || got.Candidates[0].Name != "cand-1" {
		t.Fatalf("policy name defaults not applied: %q/%q", got.Baseline.Name, got.Candidates[0].Name)
	}
}

// TestSpecSenpaiPrecedence pins the ownership rule: while a host is owned by
// a rollout controller, the pushed policy supplies mode and Senpai config —
// the fleet.Spec's own Mode/Senpai fields are overridden on every build.
func TestSpecSenpaiPrecedence(t *testing.T) {
	custom := senpai.ConfigA()
	custom.ReclaimRatio = 0.9 // absurd; must never reach a host
	cfg := testConfig(safePolicy())
	cfg.Hosts[0].Senpai = &custom
	cfg.Hosts[0].Mode = core.ModeSSDSwap

	c := New(cfg)
	h := c.hosts[0]
	if got := h.sim.(*fleet.SimHost).Senpai.Config(); got != cfg.Baseline.Config {
		t.Fatalf("host 0 boots with spec Senpai config %+v, want baseline policy %+v", got, cfg.Baseline.Config)
	}
	if h.runMode != core.ModeZswap {
		t.Fatalf("host 0 boots in spec mode %s, want baseline policy mode zswap", h.runMode)
	}
}

func TestSafeRolloutCompletes(t *testing.T) {
	r := New(testConfig(safePolicy())).Run()
	if !r.Completed() {
		t.Fatalf("state = %s, want completed; log:\n%s", r.State, r.EventLog())
	}
	if r.TrippedGuardrail != "" {
		t.Fatalf("guardrail %q tripped on the safe config", r.TrippedGuardrail)
	}
	if r.Promoted != "candidate" {
		t.Fatalf("promoted = %q, want candidate", r.Promoted)
	}
	if len(r.Stages) != 2 {
		t.Fatalf("stage reports = %d, want 2", len(r.Stages))
	}
	if r.Stages[0].Verdict != "advance" || r.Stages[1].Verdict != "complete" {
		t.Fatalf("verdicts = %q, %q", r.Stages[0].Verdict, r.Stages[1].Verdict)
	}
	for _, h := range r.Hosts {
		if !h.OnCandidate || h.Policy != "candidate" {
			t.Fatalf("host %d on %q after completion, want candidate", h.Index, h.Policy)
		}
		if h.OOMKills != 0 {
			t.Fatalf("host %d suffered %d OOM kills", h.Index, h.OOMKills)
		}
	}
	// Offloading against an idle baseline must show savings at the canary
	// stage, where the untreated control cohort factors out natural
	// footprint drift.
	if s := r.Stages[0].Candidates[0].SavingsFrac; s <= 0 {
		t.Fatalf("canary-stage savings = %.2f%%, want positive", 100*s)
	}
	if !strings.Contains(r.Render(), "completed") {
		t.Fatalf("render lacks terminal state:\n%s", r.Render())
	}
}

func TestAggressiveRolloutRollsBackAtCanary(t *testing.T) {
	r := New(testConfig(aggressivePolicy())).Run()
	if r.State != StateRolledBack {
		t.Fatalf("state = %s, want rolled-back; log:\n%s", r.State, r.EventLog())
	}
	if r.TrippedGuardrail != "psi" {
		t.Fatalf("tripped = %q, want psi; log:\n%s", r.TrippedGuardrail, r.EventLog())
	}
	last := r.Stages[len(r.Stages)-1]
	if last.Stage.Name != "canary" || last.Verdict != "rollback" {
		t.Fatalf("rollback stage = %q/%q, want canary/rollback", last.Stage.Name, last.Verdict)
	}
	if !r.Candidates[0].Dropped || r.Candidates[0].Tripped != "psi" {
		t.Fatalf("candidate outcome = %+v, want dropped on psi", r.Candidates[0])
	}
	// The blast radius of a bad config must stay inside the canary cohort.
	if n := r.OOMKillsOutsideCanary(); n != 0 {
		t.Fatalf("%d OOM kills outside the canary cohort", n)
	}
	for _, h := range r.Hosts {
		if h.OnCandidate || h.Policy != "baseline" {
			t.Fatalf("host %d still on %q after rollback", h.Index, h.Policy)
		}
	}
	// The decision log must show the trip, the drop, and the rollback.
	log := r.EventLog()
	for _, kind := range []string{
		string(trace.KindRolloutTrip),
		string(trace.KindRolloutDrop),
		string(trace.KindRolloutRollback),
	} {
		if !strings.Contains(log, kind) {
			t.Fatalf("event log lacks %s:\n%s", kind, log)
		}
	}
}

// TestModeChangeRolloutRebuilds pins the tentpole: a policy whose mode
// differs from the running host is applied by rebuilding the host through
// the crash/rejoin path at a stage barrier.
func TestModeChangeRolloutRebuilds(t *testing.T) {
	cfg := testConfig(Policy{Name: "tiered", Mode: core.ModeTiered, Config: safeCandidate()})
	r := New(cfg).Run()
	if !r.Completed() {
		t.Fatalf("state = %s, want completed; log:\n%s", r.State, r.EventLog())
	}
	if r.Promoted != "tiered" {
		t.Fatalf("promoted = %q, want tiered", r.Promoted)
	}
	for _, h := range r.Hosts {
		if h.Rebuilds < 1 {
			t.Fatalf("host %d rebuilds = %d, want >= 1 (zswap -> tiered)", h.Index, h.Rebuilds)
		}
		if h.OOMKills != 0 {
			t.Fatalf("host %d suffered %d OOM kills during mode change", h.Index, h.OOMKills)
		}
	}
	if !strings.Contains(r.EventLog(), string(trace.KindHostRebuild)) {
		t.Fatalf("event log lacks %s:\n%s", trace.KindHostRebuild, r.EventLog())
	}
}

// TestDeviceGuardrailsTripCohort pins per-device-class guardrails: a strict
// bundle on one class drops only that cohort while the rest of the fleet
// carries the candidate to completion.
func TestDeviceGuardrailsTripCohort(t *testing.T) {
	hosts := testFleet(4)
	for i, d := range []string{"C", "F", "C", "F"} {
		hosts[i].Device = d
	}
	lax := Guardrails{MaxMemPressure: 0.9, MaxOOMKills: Unlimited, MaxSwapLatched: Unlimited}
	cfg := Config{
		Hosts:            hosts,
		Baseline:         baselinePolicy(),
		Candidates:       []Policy{aggressivePolicy()},
		Plan:             []Stage{{Name: "canary", Frac: 0.5, Bake: 3}, {Name: "fleet", Frac: 1.0, Bake: 3}},
		Guardrails:       lax,
		DeviceGuardrails: map[string]Guardrails{"F": testGuardrails()},
		Window:           30 * vclock.Second,
		WarmWindows:      2,
		SettleWindows:    1,
		Seed:             42,
	}
	r := New(cfg).Run()
	if !r.Completed() {
		t.Fatalf("state = %s, want completed with F excluded; log:\n%s", r.State, r.EventLog())
	}
	out := r.Candidates[0]
	if out.Dropped {
		t.Fatalf("candidate fully dropped; want only the F cohort excluded; log:\n%s", r.EventLog())
	}
	if len(out.ExcludedDevices) != 1 || out.ExcludedDevices[0] != "F" {
		t.Fatalf("excluded devices = %v, want [F]; log:\n%s", out.ExcludedDevices, r.EventLog())
	}
	for _, h := range r.Hosts {
		wantPolicy := "candidate"
		if h.Device == "F" {
			wantPolicy = "baseline"
		}
		if h.Policy != wantPolicy {
			t.Fatalf("host %d (device %s) on %q, want %q", h.Index, h.Device, h.Policy, wantPolicy)
		}
	}
}

// banditConfig races three candidates on one device class: a mild and a
// stronger safe config plus a hot config that must trip the PSI guardrail.
func banditConfig() Config {
	mild := safeCandidate()
	mild.ReclaimRatio = 0.002
	return Config{
		Hosts:    testFleet(6),
		Baseline: baselinePolicy(),
		Candidates: []Policy{
			{Name: "cand-mild", Mode: core.ModeZswap, Config: mild},
			{Name: "cand-strong", Mode: core.ModeZswap, Config: safeCandidate()},
			{Name: "cand-hot", Mode: core.ModeZswap, Config: aggressiveCandidate()},
		},
		Plan:          []Stage{{Name: "race", Frac: 0.5, Bake: 3}, {Name: "fleet", Frac: 1.0, Bake: 3}},
		Guardrails:    testGuardrails(),
		Window:        30 * vclock.Second,
		WarmWindows:   2,
		SettleWindows: 1,
		Seed:          42,
	}
}

// TestBanditRacePromotesBestSurvivor pins the K-candidate race: the hot
// candidate trips and drops, and the final stage promotes the surviving
// candidate with the best weighted savings.
func TestBanditRacePromotesBestSurvivor(t *testing.T) {
	r := New(banditConfig()).Run()
	if !r.Completed() {
		t.Fatalf("state = %s, want completed; log:\n%s", r.State, r.EventLog())
	}
	byName := map[string]CandidateOutcome{}
	for _, c := range r.Candidates {
		byName[c.Policy] = c
	}
	if !byName["cand-hot"].Dropped {
		t.Fatalf("cand-hot survived; outcomes: %+v; log:\n%s", r.Candidates, r.EventLog())
	}
	if byName["cand-mild"].Dropped || byName["cand-strong"].Dropped {
		t.Fatalf("safe candidate dropped; outcomes: %+v; log:\n%s", r.Candidates, r.EventLog())
	}
	if r.Promoted != "cand-strong" {
		t.Fatalf("promoted = %q, want cand-strong (savings %0.2f%% vs mild %0.2f%%); log:\n%s",
			r.Promoted, 100*byName["cand-strong"].MeanSavingsFrac,
			100*byName["cand-mild"].MeanSavingsFrac, r.EventLog())
	}
	if !byName["cand-strong"].Promoted || byName["cand-mild"].Promoted {
		t.Fatalf("promotion flags wrong: %+v", r.Candidates)
	}
	for _, h := range r.Hosts {
		if h.Policy != "cand-strong" {
			t.Fatalf("host %d ended on %q, want cand-strong", h.Index, h.Policy)
		}
	}
	if !strings.Contains(r.EventLog(), string(trace.KindRolloutPromote)) {
		t.Fatalf("event log lacks %s:\n%s", trace.KindRolloutPromote, r.EventLog())
	}
}

func TestRolloutDeterministicUnderChurn(t *testing.T) {
	build := func() Config {
		cfg := testConfig(safePolicy())
		// Knock out a non-canary host mid-rollout; it must rejoin with the
		// policy its cohort is entitled to without perturbing determinism.
		cfg.Crashes = []Crash{{
			Host:     2,
			Schedule: chaos.Schedule{At: vclock.Time(3 * cfg.Window), Dur: 2 * cfg.Window},
		}}
		return cfg
	}
	a := New(build()).Run()
	b := New(build()).Run()
	if a.EventLog() != b.EventLog() {
		t.Fatalf("event logs differ across identical runs:\n--- a ---\n%s\n--- b ---\n%s",
			a.EventLog(), b.EventLog())
	}
	h := a.Hosts[2]
	if h.Crashes != 1 || h.Rejoins != 1 {
		t.Fatalf("host 2 lifecycle crashes=%d rejoins=%d, want 1/1; log:\n%s",
			h.Crashes, h.Rejoins, a.EventLog())
	}
	log := a.EventLog()
	if !strings.Contains(log, string(trace.KindHostCrash)) ||
		!strings.Contains(log, string(trace.KindHostRejoin)) {
		t.Fatalf("event log lacks lifecycle events:\n%s", log)
	}
	// The run completed despite the churn, and the rejoined host ended on
	// the rolled-out candidate.
	if !a.Completed() {
		t.Fatalf("state = %s under churn, want completed; log:\n%s", a.State, log)
	}
	if !h.OnCandidate || h.Policy != "candidate" {
		t.Fatalf("rejoined host on %q after completion, want candidate", h.Policy)
	}
}

// TestBanditDeterministicUnderChurn pins the race's event log byte-for-byte
// across identical runs with churn, drops, and promotion in play.
func TestBanditDeterministicUnderChurn(t *testing.T) {
	build := func() Config {
		cfg := banditConfig()
		cfg.Crashes = []Crash{{
			Host:     4,
			Schedule: chaos.Schedule{At: vclock.Time(4 * cfg.Window), Dur: 2 * cfg.Window},
		}}
		return cfg
	}
	a := New(build()).Run()
	b := New(build()).Run()
	if a.EventLog() != b.EventLog() {
		t.Fatalf("bandit event logs differ across identical runs:\n--- a ---\n%s\n--- b ---\n%s",
			a.EventLog(), b.EventLog())
	}
	if !a.Completed() || a.Promoted != b.Promoted {
		t.Fatalf("state=%s promoted a=%q b=%q; log:\n%s", a.State, a.Promoted, b.Promoted, a.EventLog())
	}
}

// TestSingleStageRaceConvergesOnWinner pins that a one-stage plan races its
// candidates through the stage, promotes at its end, and moves every
// treated host the winner is not barred from onto the winner.
func TestSingleStageRaceConvergesOnWinner(t *testing.T) {
	cfg := banditConfig()
	cfg.Candidates = cfg.Candidates[:2] // cand-mild, cand-strong
	cfg.Plan = []Stage{{Name: "fleet", Frac: 1, Bake: 3}}
	r := New(cfg).Run()
	if !r.Completed() || r.Promoted == "" {
		t.Fatalf("state = %s, promoted %q; log:\n%s", r.State, r.Promoted, r.EventLog())
	}
	barred := map[string]bool{}
	for _, cand := range r.Candidates {
		if cand.Windows == 0 {
			t.Fatalf("%s never raced; outcomes: %+v; log:\n%s", cand.Policy, r.Candidates, r.EventLog())
		}
		if cand.Promoted {
			for _, d := range cand.ExcludedDevices {
				barred[d] = true
			}
		}
	}
	for _, h := range r.Hosts {
		if !barred[h.Device] && h.Policy != r.Promoted {
			t.Fatalf("host %d ended on %q, want the promoted %q; log:\n%s", h.Index, h.Policy, r.Promoted, r.EventLog())
		}
	}
}

// TestAssignmentFollowsEntitlement steps a churned three-candidate race
// over three device classes, one candidate changing the offload mode, and
// checks after every barrier that each host is assigned what entitled
// gives it, that each up host runs its assigned policy's mode, and that the
// state the controller keeps incrementally matches a recount. The churned
// two-fidelity race gets the recount too.
func TestAssignmentFollowsEntitlement(t *testing.T) {
	cfg := goldenConfig()
	cfg.Candidates[0].Mode = core.ModeTiered
	c := New(cfg)
	for done := false; !done; {
		done = c.step()
		checkRecount(t, c)
		for _, h := range c.hosts {
			if k := c.entitled(h); h.assigned != k {
				t.Fatalf("window %d: host %d assigned %d, entitled to %d; log:\n%s",
					c.window, h.index, h.assigned, k, trace.Lines(c.events))
			}
			if pol := c.policyFor(h); !h.down && h.runMode != pol.Mode {
				t.Fatalf("window %d: host %d runs %s under policy %s (%s)",
					c.window, h.index, h.runMode, pol.Name, pol.Mode)
			}
		}
	}
	r := c.result()
	if r.Rebuilds() == 0 || !strings.Contains(r.EventLog(), "device cohort dropped") {
		t.Fatalf("race neither rebuilt a host nor dropped a cohort; log:\n%s", r.EventLog())
	}

	twinCfg, _ := churnedTwinRace(2)
	c = New(twinCfg)
	for done := false; !done; {
		done = c.step()
		checkRecount(t, c)
	}
	if r := c.result(); r.Hosts[1].Rejoins == 0 {
		t.Fatalf("host 1 never rejoined; log:\n%s", r.EventLog())
	}
}

// checkRecount holds each candidate's assigned count to a recount over the
// hosts, and the up list to the up hosts in index order.
func checkRecount(t *testing.T, c *Controller) {
	t.Helper()
	n := make([]int, len(c.cands))
	var up []*host
	for _, h := range c.hosts {
		if h.assigned >= 0 {
			n[h.assigned]++
		}
		if !h.down {
			up = append(up, h)
		}
	}
	for k, cand := range c.cands {
		if cand.assigned != n[k] {
			t.Fatalf("window %d: %s counts %d assigned hosts, recount %d", c.window, cand.pol.Name, cand.assigned, n[k])
		}
	}
	if !slices.Equal(c.up, up) {
		t.Fatalf("window %d: up list holds %d hosts, want the %d up hosts in index order", c.window, len(c.up), len(up))
	}
}

// TestRollbackNamesLastDroppedGuardrail pins that a rollback reports the
// guardrail of the candidate dropped last, whatever its index.
func TestRollbackNamesLastDroppedGuardrail(t *testing.T) {
	cfg := testConfig(safePolicy())
	cfg.Candidates = []Policy{
		{Name: "a", Mode: core.ModeZswap, Config: safeCandidate()},
		{Name: "b", Mode: core.ModeZswap, Config: safeCandidate()},
	}
	c := New(cfg)
	c.beginStage(0)
	a, b := c.cands[0], c.cands[1]
	for _, drop := range []struct {
		cand      *candState
		guardrail string
	}{{b, "psi"}, {a, "rps"}} {
		for _, d := range c.fleetDevices {
			c.dropDevice(drop.cand, d, drop.guardrail, "forced")
		}
		c.dropCandidate(drop.cand)
	}
	c.rollback()
	if r := c.result(); r.TrippedGuardrail != "rps" {
		t.Fatalf("rollback names guardrail %q, want rps (a dropped last); log:\n%s", r.TrippedGuardrail, r.EventLog())
	}
}

func TestRolloutTelemetryCounters(t *testing.T) {
	c := New(testConfig(aggressivePolicy()))
	c.Run()
	snap := c.Telemetry().Snapshot()
	want := map[string]bool{
		"rollout.rollbacks":       false,
		"rollout.policy_pushes":   false,
		"rollout.candidate_drops": false,
		"rollout.guardrail_trips": false,
	}
	for _, m := range snap.Metrics {
		if _, ok := want[m.Name]; ok && m.Value > 0 {
			want[m.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Fatalf("counter %s not incremented; snapshot: %+v", name, snap.Metrics)
		}
	}
}

// TestWarmupCrashKeepsRPSNorm pins that a host crashing mid-warm-up starts
// its throughput norm over with its new life: every stage's cohort RPS
// ratio matches the same rollout without the crash.
func TestWarmupCrashKeepsRPSNorm(t *testing.T) {
	build := func(crash bool) Config {
		cfg := testConfig(safePolicy())
		cfg.WarmWindows = 4
		if crash {
			cfg.Crashes = []Crash{{
				Host:     2,
				Schedule: chaos.Schedule{At: vclock.Time(2 * cfg.Window), Dur: cfg.Window},
			}}
		}
		return cfg
	}
	base, churned := New(build(false)).Run(), New(build(true)).Run()
	if churned.Hosts[2].Crashes != 1 || len(churned.Stages) != len(base.Stages) {
		t.Fatalf("crashes=%d stages %d vs %d; log:\n%s",
			churned.Hosts[2].Crashes, len(churned.Stages), len(base.Stages), churned.EventLog())
	}
	for i, st := range churned.Stages {
		got, want := st.Candidates[0].Stats.RPSRatio, base.Stages[i].Candidates[0].Stats.RPSRatio
		if math.Abs(got-want) > 0.01 {
			t.Errorf("stage %s rps ratio %.4f with a warm-up crash, %.4f without", st.Stage.Name, got, want)
		}
	}
}

// cxlGoldenConfig is a 6-host ModeCXL fleet raced by one same-mode candidate
// that differs from the baseline only in its Senpai ratio, so the rollout
// reaches hosts through live pushes alone, with one host crashing and
// rejoining mid-rollout.
func cxlGoldenConfig() Config {
	cfg := testConfig(Policy{Name: "candidate", Mode: core.ModeCXL, Config: safeCandidate()})
	cfg.Hosts = testFleet(6)
	for i := range cfg.Hosts {
		cfg.Hosts[i].Mode = core.ModeCXL
	}
	cfg.Baseline.Mode = core.ModeCXL
	cfg.Crashes = []Crash{{
		Host:     3,
		Schedule: chaos.Schedule{At: vclock.Time(3 * cfg.Window), Dur: 2 * cfg.Window},
	}}
	return cfg
}

// TestCXLRolloutGolden pins a rollout over placement-running hosts against
// its event log and scorecard in testdata/cxl-rollout-{events,render}.txt.
// Only ModeCXL hosts run a placement loop, so these pin every same-mode
// push, crash and rejoin on hosts that carry one.
func TestCXLRolloutGolden(t *testing.T) {
	r := New(cxlGoldenConfig()).Run()
	for _, h := range r.Hosts {
		if h.Rebuilds != 0 {
			t.Fatalf("host %d rebuilt %d times; a same-mode candidate must push live", h.Index, h.Rebuilds)
		}
	}
	if h := r.Hosts[3]; h.Crashes != 1 || h.Rejoins != 1 {
		t.Fatalf("host 3 crashes=%d rejoins=%d, want 1/1; log:\n%s", h.Crashes, h.Rejoins, r.EventLog())
	}
	checkGolden(t, "cxl-rollout-events.txt", r.EventLog())
	checkGolden(t, "cxl-rollout-render.txt", r.Render())
}
