package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"tmo/internal/metrics"
)

// Metric is one instrument's state at snapshot time.
type Metric struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Kind   string  `json:"kind"`

	// Value holds the counter or gauge reading.
	Value float64 `json:"value,omitempty"`

	// Histogram state; Buckets holds the non-empty buckets' per-bucket
	// (not cumulative) counts.
	Count   int64            `json:"count,omitempty"`
	Sum     float64          `json:"sum,omitempty"`
	Buckets []metrics.Bucket `json:"buckets,omitempty"`
}

// Quantile returns the q-th quantile of a histogram metric by
// metrics.Quantile's rule; 0 for non-histograms or empty histograms.
func (m Metric) Quantile(q float64) float64 {
	return float64(metrics.Quantile(m.Buckets, m.Count, q))
}

// Snapshot is a consistent point-in-time copy of a registry, ordered by
// metric identity so output is deterministic.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Snapshot captures every instrument's current state. Counter and gauge
// functions are evaluated, and histograms copied, during the call, on the
// calling goroutine.
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
			m.Count = e.histogram.Count()
			m.Sum = float64(e.histogram.Sum())
			m.Buckets = e.histogram.Buckets()
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

// JSONFloat returns v for encoding/json, which has no number for NaN or an
// infinity: those become the strings "NaN", "+Inf" and "-Inf", the
// spelling the Prometheus text format gives them. Every JSON export spells
// them this way, so one non-finite value cannot cut an export short.
func JSONFloat(v float64) any {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return promFloat(v)
	}
	return v
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
			// Only the non-empty buckets' edges carry information.
			var cum int64
			for _, b := range m.Buckets {
				cum += b.Count
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
					name, promLabels(m.Labels, "le", fmt.Sprint(b.Le)), cum); err != nil {
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
