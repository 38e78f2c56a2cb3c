// Package trace is a host's decision stream: one bounded, typed record store
// (Recorder) that every controller and layer on the host emits into. Each
// record is a span or an instant with typed args; emission formats nothing.
// The exports are views over the same records, rendered only when written:
// the Chrome trace and the JSONL timeline (span.go), the text tail behind
// tmosim -trace, and the events of a rollout flight bundle.
package trace

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// Kind classifies a record's source; it is the record's category in every
// view.
type Kind string

// Well-known record kinds.
const (
	// Senpai: one tick span per control interval containing one probe span
	// per target, whose args carry the pressures read and the bytes
	// requested and reclaimed.
	KindSenpaiTick    Kind = "senpai.tick"
	KindSenpaiReclaim Kind = "senpai.reclaim"
	// Memory-management and backend events: the swap-full latch (anon scan
	// turned off after a refused store) and one chain demotion round.
	KindMMSwapFull    Kind = "mm.swap-full"
	KindBackendDemote Kind = "backend.demote"
	// Chaos-engine perturbations: a fault going active and returning to
	// nominal, recorded next to the controller reactions they provoke.
	KindChaosInject  Kind = "chaos.inject"
	KindChaosRestore Kind = "chaos.restore"
	// Fleet control-plane decisions: stage transitions of a staged policy
	// rollout, guardrail verdicts (per candidate and device cohort),
	// candidate drops and promotions of the bandit race, automatic
	// rollbacks, and host lifecycle (crash/rejoin/policy-rebuild) events.
	KindRolloutStage    Kind = "rollout.stage"
	KindRolloutTrip     Kind = "rollout.guardrail-trip"
	KindRolloutDrop     Kind = "rollout.candidate-drop"
	KindRolloutPromote  Kind = "rollout.promote"
	KindRolloutRollback Kind = "rollout.rollback"
	KindRolloutComplete Kind = "rollout.complete"
	KindRolloutPush     Kind = "rollout.policy-push"
	KindHostCrash       Kind = "rollout.host-crash"
	KindHostRejoin      Kind = "rollout.host-rejoin"
	KindHostRebuild     Kind = "rollout.host-rebuild"
	// Observability-plane events: an SLO burn-rate monitor firing ahead of
	// a barrier verdict, and a flight-recorder bundle being cut.
	KindSLOBurn    Kind = "slo.burn-alert"
	KindFlightDump Kind = "rollout.flight-dump"
	// Placement-loop events: promotion outcomes (committed or aborted at
	// zero cost) and watermark demotions to the far-memory node.
	KindPlacePromote Kind = "place.promote"
	KindPlaceDemote  Kind = "place.demote"
	// Twin-fidelity recalibration advice: the pressure-gap burn monitor
	// fired, so the campaign's calibration surface should be re-probed.
	KindRolloutRecalib Kind = "rollout.recalibrate-advice"
)

// Record is one finished span or instant event on the timeline.
type Record struct {
	// Name describes the operation ("senpai tick", "probe feed", a cgroup
	// or policy name, ...).
	Name string
	// Cat is the record's kind.
	Cat Kind
	// Start and End bound the span; instants have End == Start.
	Start, End vclock.Time
	// Depth is the span's nesting level at Begin time (0 = top level).
	Depth int
	// Instant marks a zero-duration point event.
	Instant bool
	// Args carries the record's typed annotations.
	Args Args
}

// Args holds a record's typed annotations as alternating key, value pairs —
// the log/slog calling convention, Instant(now, kind, name, "bytes", n) —
// which costs one small slice per record where a map would cost a table.
// Keys are strings.
type Args []any

// Map returns the pairs as the map the views render; a later pair wins over
// an earlier one with the same key.
func (a Args) Map() map[string]any {
	m := make(map[string]any, len(a)/2)
	for i := 0; i+1 < len(a); i += 2 {
		m[fmt.Sprint(a[i])] = a[i+1]
	}
	return m
}

// MarshalJSON renders the pairs as one JSON object in key order, a
// non-finite float64 value spelled as telemetry.JSONFloat gives it.
func (a Args) MarshalJSON() ([]byte, error) {
	m := a.Map()
	for k, v := range m {
		if f, ok := v.(float64); ok {
			m[k] = telemetry.JSONFloat(f)
		}
	}
	return json.Marshal(m)
}

// detailArg is the arg under which Note stores preformatted text.
const detailArg = "detail"

// Note returns an instant carrying preformatted detail text, the record a
// control plane that keeps its own unbounded log (the rollout controller's
// EventLog) appends for each decision.
func Note(now vclock.Time, kind Kind, subject, detail string) Record {
	return Record{Name: subject, Cat: kind, Start: now, End: now, Instant: true, Args: Args{detailArg, detail}}
}

// Duration returns the span's length.
func (r Record) Duration() vclock.Duration { return r.End.Sub(r.Start) }

// Detail renders the record's args as one line of text: a span's duration
// first, then a Note's detail text verbatim, then every other arg as
// key=value in key order.
func (r Record) Detail() string {
	var parts []string
	if !r.Instant {
		parts = append(parts, "dur="+r.Duration().String())
	}
	m := r.Args.Map()
	if d, ok := m[detailArg].(string); ok {
		parts = append(parts, d)
		delete(m, detailArg)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		parts = append(parts, k+"="+formatValue(m[k]))
	}
	return strings.Join(parts, " ")
}

// formatValue renders one arg value for the text views, floats to four
// significant digits.
func formatValue(v any) string {
	if f, ok := v.(float64); ok {
		return strconv.FormatFloat(f, 'g', 4, 64)
	}
	return fmt.Sprint(v)
}

// Column widths for the String rendering; over-long fields are truncated so
// the detail column stays aligned regardless of name length.
const (
	timeCol    = 10
	kindCol    = 22
	subjectCol = 18
)

// clip truncates s to width characters, marking the cut with a '~'.
func clip(s string, width int) string {
	if len(s) <= width {
		return s
	}
	return s[:width-1] + "~"
}

// String renders the record as one log line with fixed-width columns:
// start time, kind, name, detail.
func (r Record) String() string {
	return fmt.Sprintf("%-*s %-*s %-*s %s",
		timeCol, clip(r.Start.String(), timeCol),
		kindCol, clip(string(r.Cat), kindCol),
		subjectCol, clip(r.Name, subjectCol),
		r.Detail())
}

// Last returns the newest n records of recs (all of them when n <= 0).
func Last(recs []Record, n int) []Record {
	if n > 0 && len(recs) > n {
		return recs[len(recs)-n:]
	}
	return recs
}

// Lines renders recs one String line each.
func Lines(recs []Record) string {
	var b strings.Builder
	for _, r := range recs {
		b.WriteString(r.String())
		b.WriteString("\n")
	}
	return b.String()
}
