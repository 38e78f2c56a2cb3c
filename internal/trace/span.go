package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"tmo/internal/vclock"
)

// Span is one in-progress timed operation. Spans nest: a Senpai tick span
// contains one probe span per target cgroup. End finishes the span and
// commits it to the recorder.
type Span struct {
	rec   *Recorder
	name  string
	cat   Kind
	start vclock.Time
	depth int
	args  Args
	ended bool
}

// Annotate attaches a key/value argument rendered in the exporters; a later
// value under the same key wins. Calling it after End is a no-op.
func (s *Span) Annotate(key string, value any) {
	if s == nil || s.ended {
		return
	}
	s.args = append(s.args, key, value)
}

// End finishes the span at instant now. Spans must end in LIFO order
// relative to their recorder (enforced by panic, since out-of-order ends
// always indicate instrumentation bugs, like unbalanced PSI stalls).
func (s *Span) End(now vclock.Time) {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.end(s, now)
}

// Recorder is a host's one decision store: it collects the spans and
// instant events of one run up to a capacity so the whole run can be
// exported and opened in a trace viewer. Past capacity it counts drops
// rather than evicting, preserving the run's beginning (the transient the
// paper's figures mostly care about).
type Recorder struct {
	max     int
	records []Record
	stack   []*Span
	dropped int64
}

// NewRecorder returns a recorder retaining at most capacity records.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		panic("trace: recorder capacity must be positive")
	}
	return &Recorder{max: capacity}
}

// Begin opens a span at instant now, nested under any currently open span.
func (r *Recorder) Begin(now vclock.Time, cat Kind, name string) *Span {
	s := &Span{rec: r, name: name, cat: cat, start: now, depth: len(r.stack)}
	r.stack = append(r.stack, s)
	return s
}

// end commits a finished span.
func (r *Recorder) end(s *Span, now vclock.Time) {
	if len(r.stack) == 0 || r.stack[len(r.stack)-1] != s {
		panic(fmt.Sprintf("trace: span %q ended out of order", s.name))
	}
	r.stack = r.stack[:len(r.stack)-1]
	if now < s.start {
		now = s.start
	}
	r.commit(Record{Name: s.name, Cat: s.cat, Start: s.start, End: now, Depth: s.depth, Args: s.args})
}

// Instant records a zero-duration point event at the current nesting depth;
// args are its alternating key, value annotations.
func (r *Recorder) Instant(now vclock.Time, cat Kind, name string, args ...any) {
	r.commit(Record{Name: name, Cat: cat, Start: now, End: now, Depth: len(r.stack), Instant: true, Args: args})
}

// commit appends a record, or counts a drop at capacity.
func (r *Recorder) commit(rec Record) {
	if len(r.records) >= r.max {
		r.dropped++
		return
	}
	r.records = append(r.records, rec)
}

// Records returns the retained timeline ordered by start time (ties broken
// by nesting depth so parents sort before their children).
func (r *Recorder) Records() []Record {
	out := append([]Record(nil), r.records...)
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Depth < out[j].Depth
	})
	return out
}

// Len returns how many records are retained.
func (r *Recorder) Len() int { return len(r.records) }

// Dropped returns how many records were discarded at capacity.
func (r *Recorder) Dropped() int64 { return r.dropped }

// Tail renders the newest n retained records (all of them when n <= 0),
// oldest first, one line each.
func (r *Recorder) Tail(n int) string { return Lines(Last(r.Records(), n)) }

// chromeEvent is one entry of the Chrome trace_event format (the JSON
// schema chrome://tracing and Perfetto ingest).
type chromeEvent struct {
	Name  string `json:"name"`
	Cat   string `json:"cat"`
	Phase string `json:"ph"`
	TS    int64  `json:"ts"` // microseconds
	Dur   *int64 `json:"dur,omitempty"`
	PID   int    `json:"pid"`
	TID   int    `json:"tid"`
	Scope string `json:"s,omitempty"`
	Args  Args   `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace renders the timeline in Chrome trace_event JSON so a run
// opens directly in chrome://tracing or ui.perfetto.dev. Spans become
// complete ("X") events nested by time containment on one thread track;
// instants become point ("i") events. Timestamps are virtual microseconds.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	recs := r.Records()
	out := chromeTrace{
		TraceEvents:     make([]chromeEvent, 0, len(recs)),
		DisplayTimeUnit: "ms",
	}
	if r.dropped > 0 {
		out.OtherData = map[string]any{"droppedRecords": r.dropped}
	}
	for _, rec := range recs {
		ev := chromeEvent{
			Name: rec.Name,
			Cat:  string(rec.Cat),
			TS:   int64(rec.Start),
			PID:  1,
			TID:  1,
			Args: rec.Args,
		}
		if rec.Instant {
			ev.Phase = "i"
			ev.Scope = "t"
		} else {
			ev.Phase = "X"
			dur := int64(rec.Duration())
			ev.Dur = &dur
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// timelineLine is the JSONL schema: one self-contained object per line, in
// start-time order, the format downstream log pipelines ingest.
type timelineLine struct {
	T     int64  `json:"t"` // start, virtual microseconds
	Type  string `json:"type"`
	Cat   string `json:"cat"`
	Name  string `json:"name"`
	DurUS int64  `json:"dur_us,omitempty"`
	Depth int    `json:"depth"`
	Args  Args   `json:"args,omitempty"`
}

// WriteJSONL renders the timeline as JSON Lines, one record per line.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range r.Records() {
		line := timelineLine{
			T:     int64(rec.Start),
			Type:  "span",
			Cat:   string(rec.Cat),
			Name:  rec.Name,
			DurUS: int64(rec.Duration()),
			Depth: rec.Depth,
			Args:  rec.Args,
		}
		if rec.Instant {
			line.Type = "event"
		}
		if err := enc.Encode(line); err != nil {
			return err
		}
	}
	return nil
}
