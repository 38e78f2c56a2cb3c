package tsdb

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// FlightSample is one window of a host's vital signs in a flight bundle.
// Values is a small named-scalar map (JSON sorts the keys, keeping dumps
// deterministic).
type FlightSample struct {
	T      vclock.Time        `json:"t_us"`
	Window int                `json:"window"`
	Values map[string]float64 `json:"values"`
}

// MarshalJSON renders the sample with each non-finite value spelled as
// telemetry.JSONFloat gives it.
func (s FlightSample) MarshalJSON() ([]byte, error) {
	values := make(map[string]any, len(s.Values))
	for k, v := range s.Values {
		values[k] = telemetry.JSONFloat(v)
	}
	return json.Marshal(struct {
		T      vclock.Time    `json:"t_us"`
		Window int            `json:"window"`
		Values map[string]any `json:"values"`
	}{s.T, s.Window, values})
}

// FlightBundle is one dumped post-mortem — the airplane black box of the
// rollout plane: the host's recent samples plus the control plane's recent
// decision events around the trigger. A bundle is cut only when something
// goes wrong (guardrail trip, OOM, crash), so every drop in a bandit race
// ships its own post-mortem.
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
