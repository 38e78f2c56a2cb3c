package tsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// FlightSample is one per-window snapshot of a host's vital signs kept in
// the flight recorder ring. Values is a small named-scalar map (JSON sorts
// the keys, keeping dumps deterministic).
type FlightSample struct {
	T      vclock.Time        `json:"t_us"`
	Window int                `json:"window"`
	Values map[string]float64 `json:"values"`
}

// FlightRecorder keeps a bounded ring of a host's recent samples — the
// airplane black box of the rollout plane. It is cheap enough to run on
// every host all the time; a bundle is cut only when something goes wrong
// (guardrail trip, OOM, crash, rollback), so every drop in a bandit race
// ships its own post-mortem.
//
// A recorder belongs to one host and is driven from the single-threaded
// barrier path; it is not safe for concurrent use.
type FlightRecorder struct {
	cap     int
	samples []FlightSample
	next    int
	full    bool
}

// NewFlightRecorder returns a recorder retaining the most recent capacity
// samples.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		panic("tsdb: flight recorder capacity must be positive")
	}
	return &FlightRecorder{cap: capacity, samples: make([]FlightSample, 0, capacity)}
}

// Record appends one sample, evicting the oldest at capacity.
func (f *FlightRecorder) Record(s FlightSample) {
	if len(f.samples) < f.cap {
		f.samples = append(f.samples, s)
		return
	}
	f.samples[f.next] = s
	f.next = (f.next + 1) % f.cap
	f.full = true
}

// Samples returns the retained samples in chronological order.
func (f *FlightRecorder) Samples() []FlightSample {
	if !f.full {
		return append([]FlightSample(nil), f.samples...)
	}
	out := make([]FlightSample, 0, len(f.samples))
	out = append(out, f.samples[f.next:]...)
	out = append(out, f.samples[:f.next]...)
	return out
}

// Reset clears the ring (a host rebuild starts a fresh black box).
func (f *FlightRecorder) Reset() {
	f.samples = f.samples[:0]
	f.next = 0
	f.full = false
}

// FlightBundle is one dumped post-mortem: the host's recent samples plus
// the control plane's recent decision events around the trigger.
type FlightBundle struct {
	Host        string         `json:"host"`
	Reason      string         `json:"reason"`
	T           vclock.Time    `json:"t_us"`
	Window      int            `json:"window"`
	Incarnation int            `json:"incarnation"`
	Samples     []FlightSample `json:"-"`
	Events      []trace.Record `json:"-"`
}

// flightEvent is a bundle's view of one decision record.
type flightEvent struct {
	T       vclock.Time `json:"t_us"`
	Kind    trace.Kind  `json:"kind"`
	Subject string      `json:"subject"`
	Detail  string      `json:"detail"`
}

// flightLine is the JSONL schema of a bundle: a header line, then one line
// per sample, then one line per event.
type flightLine struct {
	Line string `json:"line"` // "header" | "sample" | "event"

	*FlightBundle `json:",omitempty"`
	Sample        *FlightSample `json:"sample,omitempty"`
	Event         *flightEvent  `json:"event,omitempty"`
}

// WriteJSONL renders the bundle as JSON Lines: one header line carrying
// host/reason/window identity, then samples oldest-first, then events.
func (b FlightBundle) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	if err := enc.Encode(flightLine{Line: "header", FlightBundle: &b}); err != nil {
		return err
	}
	for i := range b.Samples {
		if err := enc.Encode(flightLine{Line: "sample", Sample: &b.Samples[i]}); err != nil {
			return err
		}
	}
	for _, r := range b.Events {
		ev := flightEvent{T: r.Start, Kind: r.Cat, Subject: r.Name, Detail: r.Detail()}
		if err := enc.Encode(flightLine{Line: "event", Event: &ev}); err != nil {
			return err
		}
	}
	return nil
}

// Filename returns a deterministic file name for the bundle, e.g.
// "host-3-web_w012_guardrail-psi.jsonl".
func (b FlightBundle) Filename() string {
	return fmt.Sprintf("%s_w%03d_%s.jsonl", sanitize(b.Host), b.Window, sanitize(b.Reason))
}

// sanitize maps a free-form identity to a filesystem-safe token.
func sanitize(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '.':
			sb.WriteRune(r)
		default:
			sb.WriteByte('-')
		}
	}
	return sb.String()
}
