// Package telemetry is the fleet-grade metrics layer of the reproduction:
// a per-host registry of named counters, gauges and histograms,
// the stand-in for the production monitoring the paper's methodology rests
// on (PSI pressure curves, per-device p99 fault latencies and SSD write
// rates were all read off fleet telemetry).
//
// The registry pulls rather than copies. Like the kernel's memory.stat,
// vmstat and pressure files, each layer counts an event once, in its own
// plain state, and registers a read function over it: CounterFunc for a
// cumulative count, GaugeFunc for a level, and Histogram for a
// metrics.Histogram the layer records into. Snapshot evaluates them. A push
// Counter is only for a count no layer keeps (a rollout decision, an SLO
// alert, a chaos injection). A nil *Counter ignores updates.
//
// Snapshot contract: read functions and histogram copies run on the
// snapshotting goroutine and read their layer's fields without locks, so a
// host is snapshotted only from the goroutine that advances it or at a
// barrier where it is idle. The registry's own structures and push counters
// are safe for concurrent use. cmd/tmosim dumps a snapshot in Prometheus
// text format.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"tmo/internal/metrics"
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
	histogram *metrics.Histogram
}

// Registry holds a host's series, keyed by name plus label set. Push
// counters are created on first use and shared on subsequent lookups;
// registering a read function or histogram again replaces it. Names use dotted
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
	if kind == kindCounter {
		e.counter = &Counter{}
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

// Histogram registers h, a histogram a layer owns and records into (mm's
// fault latencies, a device's IO latencies), under name and labels.
// Snapshot copies its non-empty buckets on the calling goroutine.
// Re-registering the same series replaces the histogram.
func (r *Registry) Histogram(name string, h *metrics.Histogram, labels ...Label) {
	if h == nil {
		panic("telemetry: nil histogram")
	}
	e := r.lookup(name, kindHistogram, labels)
	r.mu.Lock()
	e.histogram = h
	r.mu.Unlock()
}
