package experiments

import (
	"strings"
	"testing"

	"tmo/internal/rollout"
)

// TestRolloutRegression pins what the scorecard's claims do not: every
// host ends on the configuration its rollout's verdict implies, the
// observability plane rides along, and — despite chaos-injected host churn
// — the whole rollout is deterministic, byte for byte.
func TestRolloutRegression(t *testing.T) {
	r := RolloutScorecard(cfg)

	for _, h := range r.Safe.Hosts {
		if !h.OnCandidate {
			t.Errorf("safe rollout: host %d not on candidate at completion", h.Index)
		}
	}
	for _, h := range r.Aggressive.Hosts {
		if h.OnCandidate {
			t.Errorf("aggressive rollout: host %d still on candidate after rollback", h.Index)
		}
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
