package slo

import (
	"testing"

	"tmo/internal/metrics"
	"tmo/internal/telemetry"
	"tmo/internal/tsdb"
	"tmo/internal/vclock"
)

const win = vclock.Time(30 * vclock.Second)

// feed appends vals at consecutive windows starting at window start+1.
func feed(db *tsdb.DB, metric string, labels []telemetry.Label, start int, vals ...float64) {
	for i, v := range vals {
		db.Append(vclock.Time(start+i+1)*win, metric, labels, v)
	}
}

func TestUpperBurnRisingEdge(t *testing.T) {
	db := tsdb.New(tsdb.Config{})
	reg := telemetry.NewRegistry()
	ev := &Evaluator{
		DB:        db,
		Monitors:  []Monitor{{Name: "psi-burn", Metric: "psi", Kind: Upper, Budget: 0.01}},
		Telemetry: reg,
	}

	// Below budget: quiet.
	feed(db, "psi", nil, 0, 0.001, 0.002, 0.002)
	if got := ev.Eval(3 * win); len(got) != 0 {
		t.Fatalf("alerts below budget: %+v", got)
	}
	// Overshoot: fast burn 1.5, slow mean well over half budget.
	feed(db, "psi", nil, 3, 0.015)
	got := ev.Eval(4 * win)
	if len(got) != 1 {
		t.Fatalf("alerts = %+v, want 1", got)
	}
	a := got[0]
	if a.Monitor != "psi-burn" || a.Series != "psi" || a.Fast < 1.4 || a.Fast > 1.6 {
		t.Fatalf("alert = %+v", a)
	}
	if a.Detail() == "" {
		t.Fatalf("empty alert detail")
	}
	// Still burning: edge-triggered, no re-alert.
	feed(db, "psi", nil, 4, 0.02)
	if got := ev.Eval(5 * win); len(got) != 0 {
		t.Fatalf("re-alert while burning: %+v", got)
	}
	// Recovers, then burns again: re-armed.
	feed(db, "psi", nil, 5, 0.001, 0.001)
	if got := ev.Eval(7 * win); len(got) != 0 {
		t.Fatalf("alert during recovery: %+v", got)
	}
	feed(db, "psi", nil, 7, 0.03)
	if got := ev.Eval(8 * win); len(got) != 1 {
		t.Fatalf("no re-alert after recovery: %+v", got)
	}
	if c := reg.Counter("slo.burn_alerts", telemetry.Label{Key: "monitor", Value: "psi-burn"}).Value(); c != 2 {
		t.Fatalf("alert counter = %d, want 2", c)
	}
}

func TestSlowWindowDebounce(t *testing.T) {
	db := tsdb.New(tsdb.Config{})
	ev := &Evaluator{DB: db, Monitors: []Monitor{{Name: "m", Metric: "psi", Kind: Upper, Budget: 0.01}}}
	// One-window spike after a long quiet stretch: the slow window (mean
	// ~0.4x budget, under slowBurn) vetoes the alert.
	feed(db, "psi", nil, 0, 0.001, 0.001, 0.001, 0.012)
	if got := ev.Eval(4 * win); len(got) != 0 {
		t.Fatalf("slow window failed to debounce: %+v", got)
	}
}

func TestLowerBurnRPSDip(t *testing.T) {
	db := tsdb.New(tsdb.Config{})
	ev := &Evaluator{DB: db, Monitors: []Monitor{{
		Name: "rps-burn", Metric: "rps_ratio", Kind: Lower, Budget: 0.75,
	}}}
	feed(db, "rps_ratio", nil, 0, 1.0, 0.98)
	if got := ev.Eval(2 * win); len(got) != 0 {
		t.Fatalf("healthy RPS alerted: %+v", got)
	}
	feed(db, "rps_ratio", nil, 2, 0.60) // dips through the budget
	got := ev.Eval(3 * win)
	if len(got) != 1 || got[0].Fast < 1.2 {
		t.Fatalf("dip alert = %+v", got)
	}

	// Total outage must burn, not divide by zero.
	feed(db, "rps_ratio", []telemetry.Label{{Key: "host", Value: "h1"}}, 3, 0, 0)
	if got := ev.Eval(5 * win); len(got) != 1 {
		t.Fatalf("outage alert = %+v", got)
	}
}

// TestSlopeProjection builds the monitor the way rollout's defaultMonitors
// does, with no window of its own: a Slope monitor's fast window must hold
// the two samples a trend needs, or it could never fire.
func TestSlopeProjection(t *testing.T) {
	db := tsdb.New(tsdb.Config{})
	ev := &Evaluator{DB: db, Monitors: []Monitor{{
		Name: "swap-slope", Metric: "swap_util", Kind: Slope, Budget: 0.95,
		Horizon: vclock.Duration(12 * win),
	}}}
	// Flat and low: projection stays put, no alert.
	feed(db, "swap_util", nil, 0, 0.30, 0.30, 0.30, 0.30)
	if got := ev.Eval(4 * win); len(got) != 0 {
		t.Fatalf("flat series alerted: %+v", got)
	}
	// Climbing ~5pp per window: projected 12 windows out crosses 0.95 long
	// before the level itself does.
	feed(db, "swap_util", nil, 4, 0.35, 0.40, 0.45, 0.50)
	got := ev.Eval(8 * win)
	if len(got) != 1 {
		t.Fatalf("slope projection missed exhaustion: %+v", got)
	}
	if got[0].Fast < 1 {
		t.Fatalf("burn = %v, want >= 1", got[0].Fast)
	}
}

// TestSlopeDegenerateWindows pins the trend-evidence guard: a Slope monitor
// must not project — and so must not alert — from a window with fewer than
// two samples or with no time spread, even when the level sits over budget.
func TestSlopeDegenerateWindows(t *testing.T) {
	m := Monitor{Name: "s", Metric: "swap_util", Kind: Slope, Budget: 0.5, Horizon: vclock.Duration(8 * win)}
	cases := []struct {
		name string
		pts  []metrics.Point
		n    int
		want float64
	}{
		{name: "empty window", pts: nil, n: 4, want: 0},
		{
			name: "single sample over budget",
			pts:  []metrics.Point{{T: win, V: 0.9}},
			n:    4,
			want: 0,
		},
		{
			name: "fast window trims to one sample",
			pts:  []metrics.Point{{T: win, V: 0.1}, {T: 2 * win, V: 0.9}},
			n:    1,
			want: 0,
		},
		{
			name: "zero time spread over budget",
			pts:  []metrics.Point{{T: win, V: 0.8}, {T: win, V: 0.9}},
			n:    4,
			want: 0,
		},
		{
			name: "two samples flat over budget still burn on level",
			pts:  []metrics.Point{{T: win, V: 0.6}, {T: 2 * win, V: 0.6}},
			n:    4,
			want: 1.2,
		},
		{
			name: "two samples climbing project ahead",
			pts:  []metrics.Point{{T: win, V: 0.1}, {T: 2 * win, V: 0.2}}, // +0.1/win, 8-win horizon
			n:    4,
			want: 2.0, // (0.2 + 0.8) / 0.5
		},
	}
	for _, tc := range cases {
		got := m.burn(tc.pts, tc.n)
		if got < tc.want-1e-9 || got > tc.want+1e-9 {
			t.Errorf("%s: burn = %v, want %v", tc.name, got, tc.want)
		}
	}

	// End to end: a series whose points all land on one instant must stay
	// quiet through Eval even with the level parked over budget.
	db := tsdb.New(tsdb.Config{})
	for i := 0; i < 3; i++ {
		db.Append(win, "swap_util", nil, 0.9)
	}
	ev := &Evaluator{DB: db, Monitors: []Monitor{{
		Name: "s", Metric: "swap_util", Kind: Slope, Budget: 0.5, Horizon: vclock.Duration(8 * win),
	}}}
	if got := ev.Eval(win); len(got) != 0 {
		t.Fatalf("degenerate slope series alerted: %+v", got)
	}
}

func TestDisabledAndShortSeries(t *testing.T) {
	db := tsdb.New(tsdb.Config{})
	ev := &Evaluator{DB: db, Monitors: []Monitor{
		{Name: "off", Metric: "psi", Kind: Upper, Budget: 0}, // zero budget disables
		{Name: "trend", Metric: "psi", Kind: Slope, Budget: 0.01, Horizon: vclock.Duration(8 * win)},
	}}
	feed(db, "psi", nil, 0, 9.9) // one sample: shorter than a Slope fast window
	if got := ev.Eval(win); len(got) != 0 {
		t.Fatalf("disabled/short monitors alerted: %+v", got)
	}
}
