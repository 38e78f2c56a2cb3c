// Package telemetry is the fleet-grade metrics layer of the reproduction:
// a per-host registry of named counters, gauges and log-linear histograms,
// the stand-in for the production monitoring the paper's methodology rests
// on (PSI pressure curves, per-device p99 fault latencies and SSD write
// rates were all read off fleet telemetry).
//
// The registry pulls rather than copies. Like the kernel's memory.stat,
// vmstat and pressure files, each layer counts an event once, in its own
// plain state, and registers a read function over it: CounterFunc for a
// cumulative count, GaugeFunc for a level. Snapshot evaluates them. A push
// Counter is only for a count no layer keeps (a rollout decision, an SLO
// alert, a chaos injection), and histograms stay push, since their buckets
// are the state. A nil *Counter or *Histogram ignores updates, so a layer
// built without a registry publishes through nil instruments unguarded.
//
// Snapshot contract: read functions run on the snapshotting goroutine and
// read their layer's fields without locks, so a host is snapshotted only
// from the goroutine that advances it or at a barrier where it is idle.
// The registry's own structures, push counters and histograms are safe for
// concurrent use. cmd/tmosim dumps a snapshot in Prometheus text format.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension attached to a metric, e.g. the SSD
// device model on a latency histogram.
type Label struct {
	Key, Value string
}

// Counter is a monotonically increasing integer metric that only the
// registry keeps. A nil Counter ignores updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n; negative deltas are ignored so the counter stays monotone.
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histSubBuckets is the number of linear sub-buckets per power-of-two
// magnitude. Four sub-buckets bound the relative quantile error at 1/4
// within a magnitude, plenty under the 2-20x effects the experiments
// measure, while a 1µs-10s latency range needs only ~4*24 buckets.
const histSubBuckets = 4

// histMaxBuckets caps the bucket array (magnitude 62 covers every int64).
const histMaxBuckets = 1 + 63*histSubBuckets

// Histogram is a log-linear histogram in the style of HdrHistogram and the
// kernel's BPF log2 histograms: values are bucketed by power-of-two
// magnitude, each magnitude split into histSubBuckets linear sub-buckets.
// Values below 1 (including zero) land in bucket 0. The value unit is the
// caller's choice; latency histograms in this repository use microseconds.
type Histogram struct {
	mu      sync.Mutex
	buckets []int64
	count   int64
	sum     float64
	min     float64
	max     float64
}

// bucketIndex maps a value to its bucket.
func bucketIndex(v float64) int {
	if v <= 1 || math.IsNaN(v) {
		return 0 // bucket 0 is (-inf, 1]
	}
	if math.IsInf(v, 1) {
		return histMaxBuckets - 1
	}
	_, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	m := exp - 1            // floor(log2 v)
	base := math.Ldexp(1, m)
	// Bucket edges are inclusive upper bounds, so a value exactly on an edge
	// belongs to the bucket below (sub is -1 for exact powers of two, which
	// indexes the previous octave's last sub-bucket).
	sub := int(math.Ceil((v-base)/(base/histSubBuckets))) - 1
	if sub >= histSubBuckets {
		sub = histSubBuckets - 1
	}
	idx := 1 + m*histSubBuckets + sub
	if idx >= histMaxBuckets {
		idx = histMaxBuckets - 1
	}
	return idx
}

// bucketUpperBound returns the inclusive upper edge of a bucket.
func bucketUpperBound(idx int) float64 {
	if idx <= 0 {
		return 1
	}
	m := (idx - 1) / histSubBuckets
	sub := (idx - 1) % histSubBuckets
	base := math.Ldexp(1, m)
	return base + float64(sub+1)*base/histSubBuckets
}

// Record adds one observation; a nil Histogram ignores it.
func (h *Histogram) Record(v float64) {
	if h == nil {
		return
	}
	idx := bucketIndex(v)
	h.mu.Lock()
	if idx >= len(h.buckets) {
		grown := make([]int64, idx+1)
		copy(grown, h.buckets)
		h.buckets = grown
	}
	h.buckets[idx]++
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

// Mean returns the mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns the q-th quantile as the upper edge of the bucket the
// quantile falls in, clamped to the observed [min, max] range; 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return quantileFromBuckets(h.buckets, h.count, h.min, h.max, q)
}

func quantileFromBuckets(buckets []int64, count int64, min, max, q float64) float64 {
	if count == 0 {
		return 0
	}
	if q <= 0 {
		return min
	}
	if q >= 1 {
		return max
	}
	rank := int64(math.Ceil(q * float64(count)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i, n := range buckets {
		cum += n
		if cum >= rank {
			v := bucketUpperBound(i)
			if v < min {
				v = min
			}
			if v > max {
				v = max
			}
			return v
		}
	}
	return max
}

// metricKind tags what a registry entry is.
type metricKind int

const (
	kindCounter metricKind = iota
	kindCounterFunc
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "invalid"
}

// entry is one registered instrument.
type entry struct {
	name   string
	labels []Label
	kind   metricKind

	counter   *Counter
	countFn   func() int64
	gaugeFn   func() float64
	histogram *Histogram
}

// Registry holds a host's series, keyed by name plus label set. Push
// instruments are created on first use and shared on subsequent lookups;
// registering a read function again replaces it. Names use dotted
// subsystem paths ("mm.refaults", "backend.ssd.read_latency_us"); the
// Prometheus exporter rewrites the dots.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

// metricID builds the registry key: name plus sorted labels.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// lookup finds or creates the entry for (name, labels), checking the kind.
func (r *Registry) lookup(name string, kind metricKind, labels []Label) *entry {
	if name == "" {
		panic("telemetry: metric name must not be empty")
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[id]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %v, requested as %v", id, e.kind, kind))
		}
		return e
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	e := &entry{name: name, labels: ls, kind: kind}
	switch kind {
	case kindCounter:
		e.counter = &Counter{}
	case kindHistogram:
		e.histogram = &Histogram{}
	}
	r.entries[id] = e
	return e
}

// Counter returns the push counter with the given name and labels,
// creating it on first use. It is for counts no layer keeps; a count a
// layer already keeps is exported with CounterFunc.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.lookup(name, kindCounter, labels).counter
}

// CounterFunc registers a counter whose value is read from fn at snapshot
// time, for a cumulative count a layer already keeps (mm's GroupStat, a
// device's IO totals). fn must be non-decreasing and must not call back
// into the registry. Re-registering the same series replaces the function.
func (r *Registry) CounterFunc(name string, fn func() int64, labels ...Label) {
	if fn == nil {
		panic("telemetry: nil counter function")
	}
	e := r.lookup(name, kindCounterFunc, labels)
	r.mu.Lock()
	e.countFn = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge whose value is read from fn at snapshot time,
// for a level a layer already tracks (PSI pressure, pool bytes). fn must
// not call back into the registry. Re-registering the same series replaces
// the function.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	if fn == nil {
		panic("telemetry: nil gauge function")
	}
	e := r.lookup(name, kindGaugeFunc, labels)
	r.mu.Lock()
	e.gaugeFn = fn
	r.mu.Unlock()
}

// Histogram returns the histogram with the given name and labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.lookup(name, kindHistogram, labels).histogram
}
