package experiments

import (
	"strings"
	"testing"
)

func TestSweepBackendsShape(t *testing.T) {
	r := SweepBackends(cfg)
	if len(r.Points) != 5 {
		t.Fatalf("points = %d, want 5 tiers", len(r.Points))
	}
	// The tiers are listed fastest to slowest; median load latency must
	// be monotone increasing.
	for i := 1; i < len(r.Points); i++ {
		if r.Points[i].MedianLoadUs <= r.Points[i-1].MedianLoadUs {
			t.Errorf("latency not monotone at %s", r.Points[i].Label)
		}
	}
	// The thesis: faster backends allow deeper offload at the same
	// pressure target. Allow small inversions between near-equal tiers
	// (zswap's pool overhead vs a fast SSD) but require a steep overall
	// gradient.
	if r.Points[0].SavingsFrac < 2*r.Points[len(r.Points)-1].SavingsFrac {
		t.Errorf("spectrum gradient too shallow: %v vs %v",
			r.Points[0].SavingsFrac, r.Points[len(r.Points)-1].SavingsFrac)
	}
	for _, pt := range r.Points {
		// Pressure stays bounded and throughput holds on every tier —
		// that is what "transparent" means.
		if pt.MeanMemPressure > 0.01 {
			t.Errorf("%s pressure %v out of control", pt.Label, pt.MeanMemPressure)
		}
		if pt.RPS < 0.95*r.Points[0].RPS {
			t.Errorf("%s RPS %v collapsed", pt.Label, pt.RPS)
		}
		if pt.SavingsFrac <= 0 {
			t.Errorf("%s no savings", pt.Label)
		}
	}
	if !strings.Contains(r.Render(), "Backend spectrum") {
		t.Errorf("render missing title")
	}
}
