package tsdb

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

func TestSeriesRoundTrip(t *testing.T) {
	var s series
	pts := []Point{
		{0, 0},
		{30 * 1e6, 100},
		{60 * 1e6, 97},          // negative integer delta
		{90 * 1e6, 0.125},       // float after integer
		{120 * 1e6, 0.25},       // float after float
		{150 * 1e6, 1 << 40},    // large jump back to integers
		{180 * 1e6, -42},        // negative value
		{210 * 1e6, math.NaN()}, // pathological float survives as raw bits
	}
	for _, p := range pts {
		s.append(p.T, p.V)
	}
	got := s.points()
	if len(got) != len(pts) {
		t.Fatalf("decoded %d points, want %d", len(got), len(pts))
	}
	for i, p := range pts {
		if got[i].T != p.T {
			t.Errorf("point %d: t=%v want %v", i, got[i].T, p.T)
		}
		if math.IsNaN(p.V) {
			if !math.IsNaN(got[i].V) {
				t.Errorf("point %d: v=%v want NaN", i, got[i].V)
			}
			continue
		}
		if got[i].V != p.V {
			t.Errorf("point %d: v=%v want %v", i, got[i].V, p.V)
		}
	}
}

func TestSeriesMonotoneClamp(t *testing.T) {
	var s series
	s.append(100, 1)
	s.append(50, 2) // backwards: clamped to t=100
	got := s.points()
	if got[1].T != 100 {
		t.Fatalf("backwards append t=%v, want clamp to 100", got[1].T)
	}
}

// fill writes an identical workload into a DB, with label order shuffled
// per call site to prove identity normalisation.
func fill(db *DB, swap bool) {
	for i := 0; i < 50; i++ {
		t := vclock.Time(i) * vclock.Time(vclock.Second)
		l := []telemetry.Label{{Key: "host", Value: "h0"}, {Key: "device", Value: "A"}}
		if swap {
			l[0], l[1] = l[1], l[0]
		}
		db.Append(t, "psi", l, float64(i)/100)
		db.Append(t, "rps", []telemetry.Label{{Key: "host", Value: "h1"}}, float64(1000-i))
	}
}

func TestDeterministicExport(t *testing.T) {
	a, b := New(Config{}), New(Config{})
	fill(a, false)
	fill(b, true)

	var aj, bj, ac, bc bytes.Buffer
	if err := a.WriteJSONL(&aj); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSONL(&bj); err != nil {
		t.Fatal(err)
	}
	if aj.String() != bj.String() {
		t.Fatalf("JSONL exports differ:\n%s\nvs\n%s", aj.String(), bj.String())
	}
	if err := a.WriteCSV(&ac); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteCSV(&bc); err != nil {
		t.Fatal(err)
	}
	if ac.String() != bc.String() {
		t.Fatalf("CSV exports differ")
	}
	if !strings.Contains(aj.String(), `"labels":{"device":"A","host":"h0"}`) {
		t.Fatalf("JSONL labels not normalised: %s", aj.String())
	}
	if !strings.HasPrefix(ac.String(), "metric,labels,t_us,value\n") {
		t.Fatalf("CSV header missing: %s", ac.String())
	}
}

func TestSelectAndMetrics(t *testing.T) {
	db := New(Config{})
	fill(db, false)
	if got := db.Metrics(); len(got) != 2 || got[0] != "psi" || got[1] != "rps" {
		t.Fatalf("Metrics() = %v", got)
	}
	sel := db.Select("psi")
	if len(sel) != 1 || sel[0].ID() != `psi{device="A",host="h0"}` {
		t.Fatalf("Select mismatch: %+v", sel)
	}
	if db.NumSeries() != 2 || db.NumSamples() != 100 {
		t.Fatalf("counts: %d series %d samples", db.NumSeries(), db.NumSamples())
	}
	if sel[0].Last().V != 0.49 {
		t.Fatalf("Last = %v", sel[0].Last())
	}
}

// TestConcurrentAppend drives the store from many goroutines — the shape
// of fleet scrapes — and is the race-gate witness for the DB itself.
func TestConcurrentAppend(t *testing.T) {
	db := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			host := []telemetry.Label{{Key: "host", Value: fmt.Sprintf("h%d", g)}}
			for i := 0; i < 200; i++ {
				db.Append(vclock.Time(i), "own", host, float64(i))
				db.Append(vclock.Time(i), "shared", nil, float64(i))
			}
		}(g)
	}
	wg.Wait()
	if db.NumSeries() != 9 {
		t.Fatalf("series = %d, want 9", db.NumSeries())
	}
	for _, s := range db.Select("own") {
		if len(s.Points) != 200 {
			t.Fatalf("series %s has %d points", s.ID(), len(s.Points))
		}
	}
	// Shared series sees all 1600 appends (timestamps clamp monotone).
	if got := len(db.Select("shared")[0].Points); got != 1600 {
		t.Fatalf("shared series has %d points, want 1600", got)
	}
}

func TestDashboardAndSummary(t *testing.T) {
	db := New(Config{})
	fill(db, false)
	dash := Dashboard(db, nil, 40, 6)
	if !strings.Contains(dash, "psi") || !strings.Contains(dash, "rps") {
		t.Fatalf("dashboard missing metrics:\n%s", dash)
	}
	if !strings.Contains(dash, "device=A,host=h0") {
		t.Fatalf("dashboard missing legend:\n%s", dash)
	}
	sum := Summary(db)
	if !strings.Contains(sum, "psi") || !strings.Contains(sum, "series") {
		t.Fatalf("summary malformed:\n%s", sum)
	}
	// Explicit metric list with an absent metric renders "(no data)".
	if !strings.Contains(Dashboard(db, []string{"absent"}, 40, 6), "(no data)") {
		t.Fatalf("absent metric should chart as no data")
	}
}
