package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"

	"tmo/internal/metrics"
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

// TestHistogramBuckets checks that a snapshot copies a registered
// histogram's non-empty buckets and that a metric's quantiles read from
// them agree with the histogram's own at every q.
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	var h metrics.Histogram
	r.Histogram("mm.fault_latency_us", &h)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		h.Record(int64(math.Exp(rng.Float64() * 12))) // log-uniform in [1, ~162k]
	}
	m, _ := r.Snapshot().Get("mm.fault_latency_us")
	if !reflect.DeepEqual(m.Buckets, h.Buckets()) || m.Count != h.Count() || m.Sum != float64(h.Sum()) {
		t.Fatalf("snapshot %d/%v/%v, want the histogram's %d/%d/%v", m.Count, m.Sum, m.Buckets, h.Count(), h.Sum(), h.Buckets())
	}
	for q := 0.0; q <= 1; q += 0.01 {
		if got, want := m.Quantile(q), float64(h.Quantile(q)); got != want {
			t.Fatalf("snapshot Quantile(%v) = %v, histogram's %v", q, got, want)
		}
	}
}

// TestHistogramStats checks that the registry holds the histogram by
// pointer: each snapshot reads the exact count and sum recorded so far.
func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	var h metrics.Histogram
	r.Histogram("psi.stall_duration_us", &h, Label{"resource", "memory"})
	for _, v := range []int64{10, 20, 30, 40} {
		h.Record(v)
	}
	m, _ := r.Snapshot().Get("psi.stall_duration_us", Label{"resource", "memory"})
	if m.Count != 4 || m.Sum != 100 || m.Kind != "histogram" {
		t.Fatalf("count=%d sum=%v kind=%s, want 4, 100, histogram", m.Count, m.Sum, m.Kind)
	}
	h.Record(1000)
	if m, _ := r.Snapshot().Get("psi.stall_duration_us", Label{"resource", "memory"}); m.Count != 5 || m.Sum != 1100 {
		t.Fatalf("count=%d sum=%v after a later record, want 5, 1100", m.Count, m.Sum)
	}
}

// TestHistogramQuantileEdges pins the contract the scraper and the burn
// monitors lean on: non-histograms and empty histograms read zero, a
// single observation answers every quantile with its bucket's midpoint,
// and out-of-range quantiles clamp to the lowest and highest buckets.
func TestHistogramQuantileEdges(t *testing.T) {
	r := NewRegistry()
	var empty, one, many metrics.Histogram
	r.Histogram("empty", &empty)
	r.Histogram("one", &one)
	r.Histogram("many", &many)
	r.CounterFunc("count", func() int64 { return 7 })
	one.Record(37)
	for _, v := range []int64{5, 10, 15} {
		many.Record(v)
	}
	snap := r.Snapshot()
	cases := []struct {
		name string
		q    float64
		want float64
	}{
		{"count", 0.5, 0},
		{"empty", 0.5, 0},
		{"empty", 0, 0},
		{"empty", 1, 0},
		{"one", 0, 37},
		{"one", 0.5, 37},
		{"one", 0.99, 37},
		{"one", 1, 37},
		{"many", -0.5, 5},
		{"many", 0.5, 10},
		{"many", 1.7, 15},
	}
	for _, tc := range cases {
		m, _ := snap.Get(tc.name)
		if got := m.Quantile(tc.q); got != tc.want {
			t.Errorf("%s: Quantile(%v) = %v, want %v", tc.name, tc.q, got, tc.want)
		}
	}
}

func TestSnapshotAndGet(t *testing.T) {
	r := NewRegistry()
	r.Counter("senpai.runs").Add(3)
	var fl metrics.Histogram
	r.Histogram("mm.fault_latency_us", &fl)
	fl.Record(120)
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
	if q := h.Quantile(0.5); q != 122 {
		t.Fatalf("snapshot quantile = %v, want 122, the midpoint of [120, 123]", q)
	}
	// Snapshot is a copy: later recording must not leak in.
	fl.Record(500)
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
	var h metrics.Histogram
	r.Histogram("backend.ssd.read_latency_us", &h, Label{"device", "tlc-1"})
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
	var h metrics.Histogram
	r.Histogram("psi.stall_duration_us", &h)
	h.Record(250)
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
// -race in the CI tier-1 gate. Lookups, push counters, GaugeFunc
// registration and Snapshot race freely on one registry; a histogram has no
// lock, so each goroutine records into its own registry's histogram, which
// is snapshotted after the barrier.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	regs := make([]*Registry, 8)
	hs := make([]metrics.Histogram, len(regs))
	var wg sync.WaitGroup
	for i := range regs {
		regs[i] = NewRegistry()
		regs[i].Histogram("mm.fault_latency_us", &hs[i])
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("mm.scans").Inc()
				r.GaugeFunc("host.free", func() float64 { return 1 })
				hs[i].Record(int64(j%97 + 1))
			}
			_ = r.Snapshot()
		}(i)
	}
	wg.Wait()
	if got := r.Counter("mm.scans").Value(); got != 8000 {
		t.Fatalf("scans = %d", got)
	}
	for _, reg := range regs {
		if m, _ := reg.Snapshot().Get("mm.fault_latency_us"); m.Count != 1000 {
			t.Fatalf("histogram count = %d", m.Count)
		}
	}
}
