package experiments

import (
	"strings"
	"testing"
)

func TestTCOShape(t *testing.T) {
	r := TCO(cfg)
	if len(r.Points) != 3 {
		t.Fatalf("points = %d, want 3 layouts", len(r.Points))
	}
	single, three := r.Points[0], r.Points[2]
	if three.NumTiers != 3 || single.NumTiers != 1 {
		t.Fatalf("layout order wrong: %+v", r.Points)
	}
	for _, pt := range r.Points {
		if pt.SavingsFrac <= 0 {
			t.Errorf("%s saved nothing", pt.Label)
		}
		if pt.CostPerGBSaved <= 0 {
			t.Errorf("%s has no cost score", pt.Label)
		}
	}
	if three.SSDGB <= 0 {
		t.Errorf("3-tier chain kept nothing on flash")
	}
	if !strings.Contains(r.Render(), "Memory TCO") {
		t.Errorf("render missing title")
	}
}

// TestTCODeterminism: the scorecard is a rollout gate, so its report must be
// byte-identical across runs of the same seed.
func TestTCODeterminism(t *testing.T) {
	a, b := TCO(cfg).Render(), TCO(cfg).Render()
	if a != b {
		t.Fatal("tco scorecard diverged across double run")
	}
}
