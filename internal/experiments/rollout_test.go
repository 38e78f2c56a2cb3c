package experiments

import (
	"strings"
	"testing"

	"tmo/internal/rollout"
)

// TestRolloutRegression pins the control-plane scorecard: with a fixed seed
// the safe candidate reaches the whole fleet, the aggressive candidate trips
// the PSI guardrail at the canary stage and rolls back with zero OOM kills
// outside the canary cohort, and — despite chaos-injected host churn — the
// whole rollout is deterministic, byte for byte.
func TestRolloutRegression(t *testing.T) {
	r := RolloutScorecard(cfg)

	// The production-shaped candidate must reach 100% of the fleet.
	if !r.Safe.Completed() {
		t.Fatalf("safe rollout state = %s, want completed; log:\n%s", r.Safe.State, r.Safe.EventLog())
	}
	for _, h := range r.Safe.Hosts {
		if !h.OnCandidate {
			t.Errorf("safe rollout: host %d not on candidate at completion", h.Index)
		}
	}

	// The Config-B-shaped candidate must be caught by the PSI guardrail at
	// the canary stage and rolled back.
	if r.Aggressive.State != rollout.StateRolledBack {
		t.Fatalf("aggressive rollout state = %s, want rolled-back; log:\n%s",
			r.Aggressive.State, r.Aggressive.EventLog())
	}
	if g := r.Aggressive.TrippedGuardrail; g != "psi" {
		t.Fatalf("aggressive rollout tripped %q, want psi; log:\n%s", g, r.Aggressive.EventLog())
	}
	last := r.Aggressive.Stages[len(r.Aggressive.Stages)-1]
	if last.Stage.Name != "canary" || last.Verdict != "rollback" {
		t.Fatalf("aggressive rollback at %q/%q, want canary/rollback", last.Stage.Name, last.Verdict)
	}
	// The staged deployment must have contained the blast radius.
	if n := r.Aggressive.OOMKillsOutsideCanary(); n != 0 {
		t.Fatalf("aggressive rollout: %d OOM kills outside the canary cohort", n)
	}
	for _, h := range r.Aggressive.Hosts {
		if h.OnCandidate {
			t.Errorf("aggressive rollout: host %d still on candidate after rollback", h.Index)
		}
	}
	// Its savings before the trip must exceed the safe canary's — the §4.4
	// trade the guardrail exists to refuse.
	aggrSavings := last.Candidates[0].SavingsFrac
	safeSavings := r.Safe.Stages[0].Candidates[0].SavingsFrac
	if aggrSavings <= safeSavings {
		t.Errorf("aggressive canary savings %.2f%% not above safe %.2f%%",
			100*aggrSavings, 100*safeSavings)
	}

	// Both runs churned a non-canary host and carried on.
	for name, res := range map[string]rollout.Result{"safe": r.Safe, "aggressive": r.Aggressive} {
		h := res.Hosts[len(res.Hosts)-1]
		if h.Crashes != 1 || h.Rejoins != 1 {
			t.Errorf("%s rollout: churned host crashes=%d rejoins=%d, want 1/1", name, h.Crashes, h.Rejoins)
		}
	}

	if !strings.Contains(r.Render(), "guardrail") {
		t.Fatalf("render lacks guardrail verdict:\n%s", r.Render())
	}

	// The observability plane rode along on the aggressive run: the burn
	// monitors raised at least one early warning and the flight recorder
	// shipped a post-mortem for the tripped cohort.
	if r.BurnAlerts == 0 {
		t.Errorf("aggressive rollout raised no SLO burn alerts; log:\n%s", r.Aggressive.EventLog())
	}
	if r.FlightBundles == 0 {
		t.Errorf("aggressive rollout dumped no flight bundles")
	}
	if !strings.Contains(r.Render(), "flight bundle") {
		t.Fatalf("render lacks observability line:\n%s", r.Render())
	}

	// Same seed, same fleet, same churn — the rollout logs must be
	// byte-identical across runs.
	again := RolloutScorecard(cfg)
	if r.Safe.EventLog() != again.Safe.EventLog() {
		t.Fatalf("safe rollout log not reproducible:\n--- a ---\n%s\n--- b ---\n%s",
			r.Safe.EventLog(), again.Safe.EventLog())
	}
	if r.Aggressive.EventLog() != again.Aggressive.EventLog() {
		t.Fatalf("aggressive rollout log not reproducible:\n--- a ---\n%s\n--- b ---\n%s",
			r.Aggressive.EventLog(), again.Aggressive.EventLog())
	}
}
