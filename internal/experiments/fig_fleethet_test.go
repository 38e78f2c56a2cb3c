package experiments

import "testing"

func TestFleetHeterogeneityShape(t *testing.T) {
	r := FleetHeterogeneity(cfg)
	if len(r.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 devices", len(r.Rows))
	}
	// The fast generations (C and newer) must extract several times the
	// savings of the rotational-era-latency device A.
	if r.Rows[2].SavingsFrac < 3*r.Rows[0].SavingsFrac {
		t.Errorf("generation gap too small: C=%v A=%v",
			r.Rows[2].SavingsFrac, r.Rows[0].SavingsFrac)
	}
	// One configuration, no regressions anywhere on the fleet.
	for _, row := range r.Rows {
		if row.RPSRatio < 0.97 {
			t.Errorf("device %s regressed RPS: %v", row.Device, row.RPSRatio)
		}
		if row.SavingsFrac <= 0 {
			t.Errorf("device %s no savings", row.Device)
		}
	}
}
