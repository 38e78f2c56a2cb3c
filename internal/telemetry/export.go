package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Bucket is one histogram bucket in a snapshot: the count of observations
// at or below UpperBound and above the previous bucket's bound.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      int64   `json:"count"`
}

// Metric is one instrument's state at snapshot time.
type Metric struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`

	// Value holds the counter or gauge reading.
	Value float64 `json:"value,omitempty"`

	// Histogram state; Buckets holds per-bucket (not cumulative) counts
	// for the allocated range.
	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Min     float64  `json:"min,omitempty"`
	Max     float64  `json:"max,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile returns the q-th quantile of a histogram metric from its bucket
// counts; 0 for non-histograms or empty histograms.
func (m Metric) Quantile(q float64) float64 {
	if m.Kind != "histogram" || m.Count == 0 {
		return 0
	}
	buckets := make([]int64, len(m.Buckets))
	for i, b := range m.Buckets {
		buckets[i] = b.Count
	}
	return quantileFromBuckets(buckets, m.Count, m.Min, m.Max, q)
}

// Snapshot is a consistent point-in-time copy of a registry, ordered by
// metric identity so output is deterministic.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every instrument's current state. Counter and gauge
// functions are evaluated during the call, on the calling goroutine.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ids := make([]string, 0, len(r.entries))
	for id := range r.entries {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	// Copies, so a read function replaced concurrently is read under the
	// lock.
	entries := make([]entry, len(ids))
	for i, id := range ids {
		entries[i] = *r.entries[id]
	}
	r.mu.Unlock()

	snap := Snapshot{Metrics: make([]Metric, 0, len(entries))}
	for _, e := range entries {
		m := Metric{Name: e.name, Labels: e.labels, Kind: e.kind.String()}
		switch e.kind {
		case kindCounter:
			m.Value = float64(e.counter.Value())
		case kindCounterFunc:
			m.Value = float64(e.countFn())
		case kindGaugeFunc:
			m.Value = e.gaugeFn()
		case kindHistogram:
			h := e.histogram
			h.mu.Lock()
			m.Count = h.count
			m.Sum = h.sum
			m.Min = h.min
			m.Max = h.max
			m.Buckets = make([]Bucket, len(h.buckets))
			for i, n := range h.buckets {
				m.Buckets[i] = Bucket{UpperBound: bucketUpperBound(i), Count: n}
			}
			h.mu.Unlock()
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// Get finds a metric by name and optional labels.
func (s Snapshot) Get(name string, labels ...Label) (Metric, bool) {
	want := metricID(name, labels)
	for _, m := range s.Metrics {
		if metricID(m.Name, m.Labels) == want {
			return m, true
		}
	}
	return Metric{}, false
}

// promName rewrites a dotted metric name into the Prometheus character set.
func promName(name string) string {
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabels renders a label set (plus an optional extra pair, used for
// "le") in exposition syntax; empty string when there are no labels.
func promLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", promName(l.Key), l.Value)
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// promFloat renders a sample value; integral values print without exponent.
func promFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders the snapshot in Prometheus text exposition format
// (the format production scrapers ingest). Histograms emit cumulative
// le-bucketed series plus _sum and _count, counters emit a single monotone
// sample, gauges a point-in-time sample.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	seenType := make(map[string]bool)
	for _, m := range s.Metrics {
		name := promName(m.Name)
		if !seenType[name] {
			seenType[name] = true
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, m.Kind); err != nil {
				return err
			}
		}
		switch m.Kind {
		case "histogram":
			var cum int64
			for i, b := range m.Buckets {
				cum += b.Count
				// Only materialise the bucket boundary samples that
				// carry information: edges where the cumulative count
				// changes, plus the first and last allocated bucket.
				if b.Count == 0 && i != 0 && i != len(m.Buckets)-1 {
					continue
				}
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					name, promLabels(m.Labels, "le", promFloat(b.UpperBound)), cum); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(m.Labels, "le", "+Inf"), m.Count); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(m.Labels, "", ""), promFloat(m.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(m.Labels, "", ""), m.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", name, promLabels(m.Labels, "", ""), promFloat(m.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}
