// Package tsdb is the fleet observability substrate: an append-only,
// labeled time-series store on the virtual clock. The rollout controller
// scrapes every host's telemetry registry (plus its own) into it at window
// barriers, fleet sweeps snapshot each host at measurement end, and the SLO
// burn-rate monitors and the ROADMAP's two-fidelity response surfaces read
// from it. It is the simulator's stand-in for the fleet TSDB the paper's
// methodology leans on — PSI pressure curves, per-device fault latencies,
// and swap trajectories were all read off production monitoring (TMO §2-3).
//
// Determinism is a contract: series iterate in metric-identity order, and
// exports of two runs with the same seed and config are byte-identical.
// The store itself is safe for concurrent appends (a single mutex — writers
// are scrape points, not hot paths), because fleet.MeasureAll scrapes from
// its worker goroutines.
package tsdb

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// Point is one sample of a series.
type Point struct {
	T vclock.Time
	V float64
}

// Config is empty: the store keeps every sample of every series for its
// whole lifetime, with no downsampling or retention. The type stays so
// that New(Config{}) keeps its signature for the callers that build a
// store that way, cmd/tmobench among them.
type Config struct{}

// series is one labeled stream with delta-encoded samples. Timestamps are
// stored as uvarint deltas from the previous sample; values as zigzag
// varint integer deltas when both neighbours are integral, raw float64
// bits otherwise. At scrape cadence most samples are integral counters and
// gauges, so the common case is 2-4 bytes per sample.
type series struct {
	metric string
	labels []telemetry.Label

	buf   []byte
	count int
	last  vclock.Time // timestamp of the newest sample
	lastV float64
}

// sample header layout: uvarint(dt<<1 | raw). raw=0 means the value is a
// zigzag-varint integer delta from the previous sample's value; raw=1 means
// 8 little-endian bytes of IEEE-754 bits follow.

// integral reports whether v is exactly representable as an int64 delta
// base, i.e. an integer small enough that int64 arithmetic is exact. −0 is
// not: int64(−0) decodes as +0, so it takes the raw path.
func integral(v float64) bool {
	return v == math.Trunc(v) && math.Abs(v) < (1<<53) && !math.IsInf(v, 0) && !(v == 0 && math.Signbit(v))
}

func (s *series) append(t vclock.Time, v float64) {
	if s.count > 0 && t < s.last {
		// The virtual clock is monotone; a backwards append indicates two
		// scrapers sharing a series. Clamp rather than corrupt the deltas.
		t = s.last
	}
	var dt uint64
	if s.count == 0 {
		dt = uint64(t)
	} else {
		dt = uint64(t - s.last)
	}
	if s.count > 0 && integral(v) && integral(s.lastV) {
		s.buf = binary.AppendUvarint(s.buf, dt<<1)
		s.buf = binary.AppendVarint(s.buf, int64(v)-int64(s.lastV))
	} else {
		s.buf = binary.AppendUvarint(s.buf, dt<<1|1)
		var raw [8]byte
		binary.LittleEndian.PutUint64(raw[:], math.Float64bits(v))
		s.buf = append(s.buf, raw[:]...)
	}
	s.last = t
	s.lastV = v
	s.count++
}

// points decodes the samples, oldest first.
func (s *series) points() []Point {
	out := make([]Point, 0, s.count)
	var t vclock.Time
	var v float64
	i := 0
	for n := 0; n < s.count; n++ {
		hdr, w := binary.Uvarint(s.buf[i:])
		i += w
		dt := hdr >> 1
		if n == 0 {
			t = vclock.Time(dt)
		} else {
			t += vclock.Time(dt)
		}
		if hdr&1 == 0 {
			dv, w := binary.Varint(s.buf[i:])
			i += w
			if n == 0 {
				v = float64(dv)
			} else {
				v = float64(int64(v) + dv)
			}
		} else {
			v = math.Float64frombits(binary.LittleEndian.Uint64(s.buf[i:]))
			i += 8
		}
		out = append(out, Point{T: t, V: v})
	}
	return out
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
	var b strings.Builder
	b.WriteString(metric)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

func sortLabels(labels []telemetry.Label) []telemetry.Label {
	ls := append([]telemetry.Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
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

// Series is one decoded stream returned by queries.
type Series struct {
	Metric string
	Labels []telemetry.Label
	Points []Point
}

// ID renders the series identity string.
func (s Series) ID() string { return seriesID(s.Metric, s.Labels) }

// Last returns the newest sample, or a zero Point when empty.
func (s Series) Last() Point {
	if len(s.Points) == 0 {
		return Point{}
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

// All returns every series, decoded, in metric-identity order.
func (db *DB) All() []Series {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Series, 0, len(db.series))
	for _, s := range db.sortedLocked() {
		out = append(out, Series{Metric: s.metric, Labels: append([]telemetry.Label(nil), s.labels...), Points: s.points()})
	}
	return out
}

// Select returns every series of one metric, in identity order.
func (db *DB) Select(metric string) []Series {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]Series, 0)
	for _, s := range db.sortedLocked() {
		if s.metric != metric {
			continue
		}
		out = append(out, Series{Metric: s.metric, Labels: append([]telemetry.Label(nil), s.labels...), Points: s.points()})
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
		n += s.count
	}
	return n
}

// jsonlSeries is the export schema: one self-contained series per line.
// Labels render as a JSON object (encoding/json sorts map keys) and points
// as [t_us, value] pairs, so identical stores export identical bytes.
type jsonlSeries struct {
	Metric string            `json:"metric"`
	Labels map[string]string `json:"labels,omitempty"`
	Points [][2]float64      `json:"points"`
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
		line := jsonlSeries{Metric: s.Metric, Labels: labelMap(s.Labels), Points: make([][2]float64, len(s.Points))}
		for i, p := range s.Points {
			line.Points[i] = [2]float64{float64(p.T), p.V}
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
// integral values print without exponent or trailing zeros.
func formatValue(v float64) string {
	if integral(v) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
