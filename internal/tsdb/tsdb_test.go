package tsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"tmo/internal/metrics"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// points appends pts to one series through the public path and reads the
// series back.
func points(t *testing.T, pts []metrics.Point) []metrics.Point {
	t.Helper()
	db := New(Config{})
	for _, p := range pts {
		db.Append(p.T, "m", nil, p.V)
	}
	all := db.All()
	if len(pts) == 0 {
		if len(all) != 0 {
			t.Fatalf("empty input made %d series", len(all))
		}
		return nil
	}
	if len(all) != 1 {
		t.Fatalf("one metric made %d series", len(all))
	}
	return all[0].Points
}

func TestSeriesRoundTrip(t *testing.T) {
	pts := []metrics.Point{
		{T: 0, V: 0},
		{T: 30 * 1e6, V: 100},
		{T: 60 * 1e6, V: 97},          // negative integer delta
		{T: 90 * 1e6, V: 0.125},       // float after integer
		{T: 120 * 1e6, V: 0.25},       // float after float
		{T: 150 * 1e6, V: 1 << 40},    // large jump back to integers
		{T: 180 * 1e6, V: -42},        // negative value
		{T: 210 * 1e6, V: math.NaN()}, // pathological float survives as raw bits
	}
	got := points(t, pts)
	if len(got) != len(pts) {
		t.Fatalf("read back %d points, want %d", len(got), len(pts))
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
	db := New(Config{})
	db.Append(100, "m", nil, 1)
	db.Append(50, "m", nil, 2) // backwards: clamped to t=100
	got := db.Select("m")[0].Points
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
// of fleet scrapes — and is the race-gate witness for the DB itself. The
// readers Select the series being appended and overwrite the points they
// got, which a caller owns: under -race that fails unless queries copy
// instead of aliasing the store's backing arrays.
func TestConcurrentAppend(t *testing.T) {
	db := New(Config{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				for _, s := range db.Select("shared") {
					for j := range s.Points {
						s.Points[j] = metrics.Point{T: -1, V: -1}
					}
				}
			}
		}()
	}
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
	// Shared series sees all 1600 appends (timestamps clamp monotone), and
	// none of the readers' writes.
	shared := db.Select("shared")[0].Points
	if len(shared) != 1600 {
		t.Fatalf("shared series has %d points, want 1600", len(shared))
	}
	shared[0].V = -1
	for i, p := range db.Select("shared")[0].Points {
		if p.T < 0 || p.V < 0 {
			t.Fatalf("shared point %d = %+v: a reader's write reached the store", i, p)
		}
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

// A non-finite sample exports as its Prometheus spelling, and the series
// and bundle samples after it are still written.
func TestNonFiniteSamplesExportInFull(t *testing.T) {
	db := New(Config{})
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0.5}
	want := []any{"NaN", "+Inf", "-Inf", 0.5}
	bundle := FlightBundle{Host: "h"}
	for i, v := range vals {
		db.Append(vclock.Time(i), fmt.Sprintf("m%d", i), nil, v)
		bundle.Samples = append(bundle.Samples, FlightSample{T: vclock.Time(i), Window: i, Values: map[string]float64{"v": v}})
	}

	var store bytes.Buffer
	if err := db.WriteJSONL(&store); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(store.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("store export holds %d of %d series:\n%s", len(lines), len(want), store.String())
	}
	for i, line := range lines {
		var s struct{ Points [][2]any }
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		if len(s.Points) != 1 || s.Points[0][1] != want[i] {
			t.Fatalf("series %d exported %v, want value %v", i, s.Points, want[i])
		}
	}

	var flight bytes.Buffer
	if err := bundle.WriteJSONL(&flight); err != nil {
		t.Fatal(err)
	}
	lines = strings.Split(strings.TrimSpace(flight.String()), "\n")
	if len(lines) != 1+len(want) {
		t.Fatalf("bundle export holds %d lines, want a header and %d samples:\n%s", len(lines), len(want), flight.String())
	}
	for i, line := range lines[1:] {
		var raw struct {
			Sample struct{ Values map[string]any }
		}
		if err := json.Unmarshal([]byte(line), &raw); err != nil {
			t.Fatal(err)
		}
		if raw.Sample.Values["v"] != want[i] {
			t.Fatalf("bundle sample %d exported %v, want %v", i, raw.Sample.Values, want[i])
		}
	}
}
