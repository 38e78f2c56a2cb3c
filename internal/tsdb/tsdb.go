// Package tsdb is the fleet observability substrate: an append-only,
// labeled time-series store on the virtual clock. The rollout controller
// scrapes every host's telemetry registry (plus its own) into it at window
// barriers, fleet sweeps snapshot each host at measurement end, and the SLO
// burn-rate monitors and the rollout's flight bundles read from it. It is
// the simulator's stand-in for the fleet TSDB the paper's methodology leans
// on — PSI pressure curves, per-device fault latencies, and swap
// trajectories were all read off production monitoring (TMO §2-3).
//
// Determinism is a contract: series iterate in metric-identity order, and
// exports of two runs with the same seed and config are byte-identical.
// The store itself is safe for concurrent appends (a single mutex — writers
// are scrape points, not hot paths), because fleet.MeasureAll scrapes from
// its worker goroutines; queries return copies made under the lock.
package tsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"tmo/internal/metrics"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// Config is empty: the store keeps every sample of every series for its
// whole lifetime, with no downsampling or retention. The type stays so
// that New(Config{}) keeps its signature for the callers that build a
// store that way, cmd/tmobench among them.
type Config struct{}

// series is one labeled stream of samples, oldest first.
type series struct {
	metric string
	labels []telemetry.Label
	points []metrics.Point
}

func (s *series) append(t vclock.Time, v float64) {
	if n := len(s.points); n > 0 && t < s.points[n-1].T {
		// The virtual clock is monotone; a backwards append indicates two
		// scrapers sharing a series. Clamp it so every series stays in time
		// order, which the SLO windows and the exports rely on.
		t = s.points[n-1].T
	}
	s.points = append(s.points, metrics.Point{T: t, V: v})
}

// DB is the store. All methods are safe for concurrent use.
type DB struct {
	mu     sync.Mutex
	series map[string]*series
}

// New returns an empty store.
func New(Config) *DB {
	return &DB{series: make(map[string]*series)}
}

// seriesID renders a series identity as name{k="v",...} with sorted label
// keys, the same shape the telemetry registry keys instruments by.
func seriesID(metric string, labels []telemetry.Label) string {
	if len(labels) == 0 {
		return metric
	}
	b := append(make([]byte, 0, 128), metric...)
	b = append(b, '{')
	for i, l := range labels {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(append(b, l.Key...), '=')
		b = strconv.AppendQuote(b, l.Value)
	}
	return string(append(b, '}'))
}

func sortLabels(labels []telemetry.Label) []telemetry.Label {
	ls := slices.Clone(labels)
	slices.SortFunc(ls, func(a, b telemetry.Label) int { return strings.Compare(a.Key, b.Key) })
	return ls
}

// Append records one sample. Labels may arrive in any order; they are
// sorted into the series identity.
func (db *DB) Append(t vclock.Time, metric string, labels []telemetry.Label, v float64) {
	if metric == "" {
		panic("tsdb: metric name must not be empty")
	}
	ls := sortLabels(labels)
	id := seriesID(metric, ls)
	db.mu.Lock()
	defer db.mu.Unlock()
	s, ok := db.series[id]
	if !ok {
		s = &series{metric: metric, labels: ls}
		db.series[id] = s
	}
	s.append(t, v)
}

// Series is one stream returned by queries: a copy, so it stays valid
// while the store keeps appending.
type Series struct {
	Metric string
	Labels []telemetry.Label
	Points []metrics.Point
}

// ID renders the series identity string.
func (s Series) ID() string { return seriesID(s.Metric, s.Labels) }

// Last returns the newest sample, or a zero Point when empty.
func (s Series) Last() metrics.Point {
	if len(s.Points) == 0 {
		return metrics.Point{}
	}
	return s.Points[len(s.Points)-1]
}

// sortedLocked returns the series in identity order.
func (db *DB) sortedLocked() []*series {
	ids := make([]string, 0, len(db.series))
	for id := range db.series {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*series, len(ids))
	for i, id := range ids {
		out[i] = db.series[id]
	}
	return out
}

// clone returns a copy of s that shares no memory with the store, so the
// caller owns it while appends go on; callers hold db.mu.
func (s *series) clone() Series {
	return Series{Metric: s.metric, Labels: slices.Clone(s.labels), Points: slices.Clone(s.points)}
}

// All returns a copy of every series, in metric-identity order.
func (db *DB) All() []Series {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Series, 0, len(db.series))
	for _, s := range db.sortedLocked() {
		out = append(out, s.clone())
	}
	return out
}

// Select returns a copy of every series of one metric, in identity order.
func (db *DB) Select(metric string) []Series {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Series, 0)
	for _, s := range db.sortedLocked() {
		if s.metric == metric {
			out = append(out, s.clone())
		}
	}
	return out
}

// Metrics returns the distinct metric names, sorted.
func (db *DB) Metrics() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	seen := make(map[string]bool)
	for _, s := range db.series {
		seen[s.metric] = true
	}
	out := make([]string, 0, len(seen))
	for m := range seen {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// NumSeries returns how many series exist.
func (db *DB) NumSeries() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.series)
}

// NumSamples returns the total samples across all series.
func (db *DB) NumSamples() int {
	db.mu.Lock()
	defer db.mu.Unlock()
	n := 0
	for _, s := range db.series {
		n += len(s.points)
	}
	return n
}

// jsonlSeries is the export schema: one self-contained series per line.
// Labels render as a JSON object (encoding/json sorts map keys) and points
// as [t_us, value] pairs, so identical stores export identical bytes. A
// non-finite value is spelled as telemetry.JSONFloat gives it.
type jsonlSeries struct {
	Metric string            `json:"metric"`
	Labels map[string]string `json:"labels,omitempty"`
	Points [][2]any          `json:"points"`
}

func labelMap(labels []telemetry.Label) map[string]string {
	if len(labels) == 0 {
		return nil
	}
	m := make(map[string]string, len(labels))
	for _, l := range labels {
		m[l.Key] = l.Value
	}
	return m
}

// WriteJSONL exports every series as JSON Lines, one series per line, in
// metric-identity order.
func (db *DB) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, s := range db.All() {
		line := jsonlSeries{Metric: s.Metric, Labels: labelMap(s.Labels), Points: make([][2]any, len(s.Points))}
		for i, p := range s.Points {
			line.Points[i] = [2]any{float64(p.T), telemetry.JSONFloat(p.V)}
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV exports every sample as one CSV row (metric, labels, t_us,
// value), series in identity order, samples oldest first. Labels render as
// semicolon-joined k=v pairs.
func (db *DB) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "metric,labels,t_us,value"); err != nil {
		return err
	}
	for _, s := range db.All() {
		parts := make([]string, len(s.Labels))
		for i, l := range s.Labels {
			parts[i] = l.Key + "=" + l.Value
		}
		ls := strings.Join(parts, ";")
		for _, p := range s.Points {
			if _, err := fmt.Fprintf(w, "%s,%s,%d,%s\n", s.Metric, ls, int64(p.T), formatValue(p.V)); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatValue renders a sample value compactly and deterministically:
// integers below 2^53 print without exponent or trailing zeros; −0 keeps
// its sign through %g.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < (1<<53) && !(v == 0 && math.Signbit(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
