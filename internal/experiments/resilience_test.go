package experiments

import "testing"

// TestResilienceRegression is the chaos-suite regression gate: for each of
// the four core fault classes, the Senpai-controlled host must recover
// (pressure settles back under the threshold, no OOM kills) while the
// uncontrolled baseline does not — it either OOMs or sustains pressure
// above the threshold for the whole recovery window.
func TestResilienceRegression(t *testing.T) {
	for _, class := range []string{"slow-device", "wear-out", "load-surge", "capacity-loss"} {
		t.Run(class, func(t *testing.T) {
			outs := runResilience(cfg, class)
			if len(outs) == 0 {
				t.Fatalf("unknown resilience class %q", class)
			}
			s, b := outs[0].Senpai, outs[0].Baseline
			if !s.Recovered {
				t.Errorf("senpai did not recover: steady pressure %.4f (threshold %.4f), %d OOM kills",
					s.SteadyPressure, resilienceThreshold, s.OOMKills)
			}
			if s.OOMKills != 0 {
				t.Errorf("senpai arm OOM-killed %d times", s.OOMKills)
			}
			if b.Recovered {
				t.Errorf("baseline unexpectedly recovered: steady pressure %.4f, %d OOM kills — fault too mild to regress against",
					b.SteadyPressure, b.OOMKills)
			}
			// The controller must also be strictly better, not just luckier
			// with the threshold.
			if b.OOMKills == 0 && s.SteadyPressure >= b.SteadyPressure {
				t.Errorf("senpai steady pressure %.4f not below baseline %.4f",
					s.SteadyPressure, b.SteadyPressure)
			}
		})
	}
}

// TestResilienceScorecardShape sanity-checks the full suite's plumbing.
func TestResilienceScorecardShape(t *testing.T) {
	r := Resilience(cfg)
	if len(r.Outcomes) < 6 {
		t.Fatalf("scorecard too small: %d outcomes", len(r.Outcomes))
	}
	for _, o := range r.Outcomes {
		for _, arm := range []ResilienceArm{o.Senpai, o.Baseline} {
			if len(arm.Pressure.Points) < 20 {
				t.Errorf("%s/%s: pressure series too sparse (%d points)", o.Name, arm.Name, len(arm.Pressure.Points))
			}
			if arm.PreRPS <= 0 {
				t.Errorf("%s/%s: no pre-fault throughput measured", o.Name, arm.Name)
			}
		}
		if o.Senpai.PeakPressure > o.Baseline.PeakPressure*4 {
			t.Errorf("%s: senpai peak %.4f wildly above baseline %.4f", o.Name, o.Senpai.PeakPressure, o.Baseline.PeakPressure)
		}
	}
	if r.Render() == "" {
		t.Error("empty render")
	}
}
