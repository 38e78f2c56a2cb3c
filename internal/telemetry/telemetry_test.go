package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("mm.refaults")
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotone
	if c.Value() != 42 {
		t.Fatalf("value = %d", c.Value())
	}
	if r.Counter("mm.refaults") != c {
		t.Fatalf("second lookup returned a different counter")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	v := 3.5
	r.GaugeFunc("host.used_bytes", func() float64 { return v })
	if m, _ := r.Snapshot().Get("host.used_bytes"); m.Value != 3.5 || m.Kind != "gauge" {
		t.Fatalf("gauge = %+v", m)
	}
	v = -1
	if m, _ := r.Snapshot().Get("host.used_bytes"); m.Value != -1 {
		t.Fatalf("gauges must go down too: %v", m.Value)
	}
}

func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	var n int64 = 5
	r.CounterFunc("mm.refaults", func() int64 { return n })
	n = 8
	m, ok := r.Snapshot().Get("mm.refaults")
	if !ok || m.Kind != "counter" || m.Value != 8 {
		t.Fatalf("counter func = %+v ok=%v, want a counter read at snapshot time", m, ok)
	}
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "# TYPE mm_refaults counter\nmm_refaults 8\n"; buf.String() != want {
		t.Fatalf("exposition = %q, want %q", buf.String(), want)
	}
	// A func-backed series cannot be requested as a push counter.
	defer func() {
		if recover() == nil {
			t.Fatalf("push lookup of a counter func did not panic")
		}
	}()
	r.Counter("mm.refaults")
}

func TestNilInstrumentsIgnoreUpdates(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(3)
	var h *Histogram
	h.Record(42)
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.GaugeFunc("psi.memory.some_total_us", func() float64 { return v })
	m, ok := r.Snapshot().Get("psi.memory.some_total_us")
	if !ok || m.Value != 7 {
		t.Fatalf("gauge func value = %+v ok=%v", m, ok)
	}
	v = 9
	if m, _ := r.Snapshot().Get("psi.memory.some_total_us"); m.Value != 9 {
		t.Fatalf("gauge func not re-evaluated: %+v", m)
	}
}

func TestLabelsMakeDistinctSeries(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("backend.ssd.reads", Label{"device", "fast"})
	b := r.Counter("backend.ssd.reads", Label{"device", "slow"})
	if a == b {
		t.Fatalf("distinct label sets shared an instrument")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Fatalf("label isolation broken")
	}
	// Label order must not matter.
	x := r.Counter("m", Label{"a", "1"}, Label{"b", "2"})
	y := r.Counter("m", Label{"b", "2"}, Label{"a", "1"})
	if x != y {
		t.Fatalf("label order created distinct series")
	}
}

func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	r := NewRegistry()
	r.Counter("x")
	r.GaugeFunc("x", func() float64 { return 0 })
}

func TestHistogramBuckets(t *testing.T) {
	// Bucket upper bounds must be monotone and bucketIndex consistent with
	// them: v must land in the first bucket whose upper bound is >= v.
	prev := 0.0
	for i := 0; i < histMaxBuckets; i++ {
		ub := bucketUpperBound(i)
		if ub <= prev {
			t.Fatalf("bucket %d bound %v not above %v", i, ub, prev)
		}
		prev = ub
	}
	for _, v := range []float64{0, 0.5, 1, 1.5, 2, 3, 4, 7, 8, 100, 1e6, 1e12} {
		idx := bucketIndex(v)
		if v > bucketUpperBound(idx) {
			t.Fatalf("v=%v above its bucket bound %v (idx %d)", v, bucketUpperBound(idx), idx)
		}
		if idx > 0 && v <= bucketUpperBound(idx-1) {
			t.Fatalf("v=%v fits the previous bucket %v (idx %d)", v, bucketUpperBound(idx-1), idx)
		}
	}
}

func TestHistogramStats(t *testing.T) {
	var h Histogram
	for _, v := range []float64{10, 20, 30, 40} {
		h.Record(v)
	}
	if h.count != 4 || h.sum != 100 || h.Mean() != 25 {
		t.Fatalf("count=%d sum=%v mean=%v", h.count, h.sum, h.Mean())
	}
	if q := h.Quantile(0); q != 10 {
		t.Fatalf("q0 = %v", q)
	}
	if q := h.Quantile(1); q != 40 {
		t.Fatalf("q1 = %v", q)
	}
	var empty Histogram
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Fatalf("empty histogram not zero-valued")
	}
}

// TestHistogramQuantileEdges pins the contract the scraper and the burn
// monitors lean on: empty histograms read zero everywhere, out-of-range
// quantiles clamp to the exact min/max, and a single sample answers every
// quantile with itself.
func TestHistogramQuantileEdges(t *testing.T) {
	var empty, one, many Histogram
	one.Record(37)
	for _, v := range []float64{5, 10, 15} {
		many.Record(v)
	}
	cases := []struct {
		name string
		h    *Histogram
		q    float64
		want float64
	}{
		{"empty q0.5", &empty, 0.5, 0},
		{"empty q0", &empty, 0, 0},
		{"empty q1", &empty, 1, 0},
		{"single q0", &one, 0, 37},
		{"single q0.5", &one, 0.5, 37},
		{"single q0.99", &one, 0.99, 37},
		{"single q1", &one, 1, 37},
		{"q<=0 is min", &many, -0.5, 5},
		{"q>=1 is max", &many, 1.7, 15},
		{"q NaN-adjacent low", &many, 1e-9, 5}, // rank clamps to 1: still min
	}
	for _, tc := range cases {
		if got := tc.h.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

// Quantile estimates must stay within one sub-bucket's relative width of the
// exact sample quantile — the log-linear design's error bound.
func TestHistogramQuantileAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h Histogram
	samples := make([]float64, 10000)
	for i := range samples {
		v := math.Exp(rng.Float64()*12) + 1 // log-uniform in [2, ~162k]
		samples[i] = v
		h.Record(v)
	}
	sort.Float64s(samples)
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(math.Ceil(q*float64(len(samples))))-1]
		got := h.Quantile(q)
		if rel := math.Abs(got-exact) / exact; rel > 1.0/histSubBuckets {
			t.Fatalf("q%v: got %v exact %v rel err %v", q, got, exact, rel)
		}
	}
}

func TestSnapshotAndGet(t *testing.T) {
	r := NewRegistry()
	r.Counter("senpai.runs").Add(3)
	r.Histogram("mm.fault_latency_us").Record(120)
	snap := r.Snapshot()
	if len(snap.Metrics) != 2 {
		t.Fatalf("metrics = %d", len(snap.Metrics))
	}
	c, ok := snap.Get("senpai.runs")
	if !ok || c.Kind != "counter" || c.Value != 3 {
		t.Fatalf("counter snapshot = %+v ok=%v", c, ok)
	}
	h, ok := snap.Get("mm.fault_latency_us")
	if !ok || h.Kind != "histogram" || h.Count != 1 || h.Sum != 120 {
		t.Fatalf("histogram snapshot = %+v ok=%v", h, ok)
	}
	if q := h.Quantile(0.5); q != 120 {
		t.Fatalf("snapshot quantile = %v", q)
	}
	// Snapshot is a copy: later recording must not leak in.
	r.Histogram("mm.fault_latency_us").Record(500)
	if h2, _ := snap.Get("mm.fault_latency_us"); h2.Count != 1 {
		t.Fatalf("snapshot mutated by later Record")
	}
	if _, ok := snap.Get("absent"); ok {
		t.Fatalf("Get found an absent metric")
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("mm.refaults").Add(12)
	r.GaugeFunc("host.used_bytes", func() float64 { return 4096 })
	r.Counter("backend.ssd.reads", Label{"device", "tlc-1"}).Add(2)
	h := r.Histogram("backend.ssd.read_latency_us", Label{"device", "tlc-1"})
	h.Record(80)
	h.Record(95)
	h.Record(1500)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE mm_refaults counter",
		"mm_refaults 12",
		"# TYPE host_used_bytes gauge",
		"host_used_bytes 4096",
		`backend_ssd_reads{device="tlc-1"} 2`,
		"# TYPE backend_ssd_read_latency_us histogram",
		`backend_ssd_read_latency_us_bucket{device="tlc-1",le="+Inf"} 3`,
		`backend_ssd_read_latency_us_sum{device="tlc-1"} 1675`,
		`backend_ssd_read_latency_us_count{device="tlc-1"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Cumulative bucket counts must be non-decreasing down the page.
	lastCum := int64(-1)
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "backend_ssd_read_latency_us_bucket") {
			continue
		}
		fields := strings.Fields(line)
		cum, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if cum < lastCum {
			t.Fatalf("cumulative count decreased:\n%s", out)
		}
		lastCum = cum
	}
	if lastCum != 3 {
		t.Fatalf("final cumulative bucket = %d", lastCum)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("oomd.kills").Inc()
	r.Histogram("psi.stall_duration_us").Record(250)
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	var snap Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("round trip failed: %v\n%s", err, buf.String())
	}
	if len(snap.Metrics) != 2 {
		t.Fatalf("metrics = %d", len(snap.Metrics))
	}
	m, ok := snap.Get("psi.stall_duration_us")
	if !ok || m.Count != 1 || len(m.Buckets) == 0 {
		t.Fatalf("histogram did not round-trip: %+v", m)
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"mm.refaults":       "mm_refaults",
		"backend.ssd-reads": "backend_ssd_reads",
		"9lives":            "_9lives",
		"ok_name":           "ok_name",
	} {
		if got := promName(in); got != want {
			t.Fatalf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// The registry must be safe for concurrent publication — exercised with
// -race in the CI tier-1 gate.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("mm.scans").Inc()
				r.GaugeFunc("host.free", func() float64 { return 1 })
				r.Histogram("mm.fault_latency_us").Record(float64(j%97 + 1))
			}
			_ = r.Snapshot()
		}(i)
	}
	wg.Wait()
	if got := r.Counter("mm.scans").Value(); got != 8000 {
		t.Fatalf("scans = %d", got)
	}
	if got := r.Histogram("mm.fault_latency_us").count; got != 8000 {
		t.Fatalf("histogram count = %d", got)
	}
}
