package experiments

import (
	"strings"
	"testing"
)

// TestTwinScaleRegression pins what the scale scorecard's claims do not, at
// a reduced population: the whole campaign is deterministic — two runs with
// the same seed produce byte-identical rollout event logs — and the render
// carries the gate and the promotion.
func TestTwinScaleRegression(t *testing.T) {
	r1 := twinScale(cfg, 2000)
	r2 := twinScale(cfg, 2000)

	if r1.Rollout.EventLog() != r2.Rollout.EventLog() {
		t.Fatalf("twin-scale event logs diverge between identical runs:\n--- run 1\n%s\n--- run 2\n%s",
			r1.Rollout.EventLog(), r2.Rollout.EventLog())
	}

	if out := r1.Render(); !strings.Contains(out, "fidelity gate") || !strings.Contains(out, "promoted: safe") {
		t.Fatalf("render missing gate or promotion sections:\n%s", out)
	}
}
