package experiments

import (
	"strings"
	"testing"
)

func TestPlacementScorecard(t *testing.T) {
	r := PlacementScorecard(cfg)

	// Every arm runs under the same offload clamp, so savings must agree
	// to within rounding and all be substantial.
	for _, a := range r.Arms() {
		if a.SavingsFrac < 0.30 {
			t.Errorf("%s savings %.3f too low for a clamped host", a.Name, a.SavingsFrac)
		}
	}

	// The swap-only strawman pays fault latency for its cold misses; the
	// gap to the placement arms should be large, not marginal.
	if r.LocalSwap.MeanMemPressure < 5*r.TPP.MeanMemPressure {
		t.Errorf("local+swap pressure %.5f not clearly above tpp %.5f",
			r.LocalSwap.MeanMemPressure, r.TPP.MeanMemPressure)
	}

	// Migration ran in both directions on the TPP arm and nowhere else.
	if r.TPP.Promotions == 0 || r.TPP.Demotions == 0 {
		t.Errorf("tpp migration idle: %d promotions, %d demotions",
			r.TPP.Promotions, r.TPP.Demotions)
	}
	if r.Interleave.Promotions != 0 {
		t.Errorf("static interleave promoted %d pages", r.Interleave.Promotions)
	}
	if r.LocalSwap.FarMiB != 0 {
		t.Errorf("swap-only arm holds %.1f MiB far", r.LocalSwap.FarMiB)
	}

	if r.Restarts == 0 {
		t.Fatal("churn phase produced no restarts")
	}

	out := r.Render()
	for _, want := range []string{"Placement scorecard", "tpp", "local+swap", "interleave"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestPlacementScorecardDeterminism(t *testing.T) {
	// Double runs are byte-identical per seed, and the seed matters.
	a := PlacementScorecard(Config{Quick: true, Seed: 7}).Render()
	b := PlacementScorecard(Config{Quick: true, Seed: 7}).Render()
	if a != b {
		t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
	}
}
