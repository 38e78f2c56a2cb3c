package experiments

import (
	"strings"
	"testing"

	"tmo/internal/trace"
)

// TestPolicyRolloutRegression pins what the scorecard's claims do not: the
// rebuilds show in the mode change's log, every host ends on the policy its
// rollout's verdict implies with zero OOM kills, and all three rollouts are
// byte-for-byte deterministic under churn.
func TestPolicyRolloutRegression(t *testing.T) {
	r := PolicyScorecard(cfg)

	if !strings.Contains(r.ModeChange.EventLog(), string(trace.KindHostRebuild)) {
		t.Fatalf("mode-change log lacks %s:\n%s", trace.KindHostRebuild, r.ModeChange.EventLog())
	}
	for _, h := range r.ModeChange.Hosts {
		if h.OOMKills != 0 {
			t.Errorf("mode-change: host %d suffered %d OOM kills", h.Index, h.OOMKills)
		}
		if h.Policy != "tiered" {
			t.Errorf("mode-change: host %d ended on %q, want tiered", h.Index, h.Policy)
		}
	}
	// The churned tail host crashed, rejoined, and still converged.
	churned := r.ModeChange.Hosts[len(r.ModeChange.Hosts)-1]
	if churned.Crashes != 1 || churned.Rejoins != 1 {
		t.Errorf("mode-change churned host crashes=%d rejoins=%d, want 1/1", churned.Crashes, churned.Rejoins)
	}

	// Device split: only the strict F/G cohorts revert.
	for _, h := range r.DeviceSplit.Hosts {
		want := "candidate"
		if h.Device == "F" || h.Device == "G" {
			want = "baseline"
		}
		if h.Policy != want {
			t.Errorf("device-split: host %d (device %s) on %q, want %q", h.Index, h.Device, h.Policy, want)
		}
	}

	// Bandit: the best survivor is promoted fleet-wide.
	for _, h := range r.Bandit.Hosts {
		if h.Policy != "cand-strong" {
			t.Errorf("bandit: host %d ended on %q, want cand-strong", h.Index, h.Policy)
		}
	}

	if !strings.Contains(r.Render(), "promoted") {
		t.Fatalf("render lacks promotion verdict:\n%s", r.Render())
	}

	// Same seed, same fleet, same churn — byte-identical event logs, with
	// rebuilds, drops, and promotion all in play.
	again := PolicyScorecard(cfg)
	for name, pair := range map[string][2]string{
		"mode-change":  {r.ModeChange.EventLog(), again.ModeChange.EventLog()},
		"device-split": {r.DeviceSplit.EventLog(), again.DeviceSplit.EventLog()},
		"bandit":       {r.Bandit.EventLog(), again.Bandit.EventLog()},
	} {
		if pair[0] != pair[1] {
			t.Fatalf("%s rollout log not reproducible:\n--- a ---\n%s\n--- b ---\n%s",
				name, pair[0], pair[1])
		}
	}
}
