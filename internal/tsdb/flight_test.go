package tsdb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tmo/internal/trace"
	"tmo/internal/vclock"
)

func sample(w int, psi float64) FlightSample {
	return FlightSample{
		T:      vclock.Time(w) * vclock.Time(30*vclock.Second),
		Window: w,
		Values: map[string]float64{"pressure": psi, "rps": 100},
	}
}

func TestFlightBundleJSONL(t *testing.T) {
	bundle := FlightBundle{
		Host:        "host-3/web",
		Reason:      "guardrail-psi",
		T:           360 * vclock.Time(vclock.Second),
		Window:      12,
		Incarnation: 1,
		Samples:     []FlightSample{sample(10, 0.003), sample(11, 0.009)},
		Events: []trace.Record{
			trace.Note(350*vclock.Time(vclock.Second), trace.KindRolloutTrip, "cand@C", "psi"),
		},
	}
	var a, b bytes.Buffer
	if err := bundle.WriteJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := bundle.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("bundle dump not deterministic")
	}
	lines := strings.Split(strings.TrimSpace(a.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("bundle has %d lines, want header+2 samples+1 event:\n%s", len(lines), a.String())
	}
	if !strings.Contains(lines[0], `"line":"header"`) || !strings.Contains(lines[0], `"reason":"guardrail-psi"`) {
		t.Fatalf("header line malformed: %s", lines[0])
	}
	if !strings.Contains(lines[1], `"pressure":0.003`) {
		t.Fatalf("sample line malformed: %s", lines[1])
	}
	if want := `{"line":"event","event":{"t_us":350000000,"kind":"rollout.guardrail-trip","subject":"cand@C","detail":"psi"}}`; lines[3] != want {
		t.Fatalf("event line malformed: %s", lines[3])
	}
	if got, want := bundle.Filename(), "host-3-web_w012_guardrail-psi.jsonl"; got != want {
		t.Fatalf("Filename() = %q, want %q", got, want)
	}
}

// A bundle cut from the newest n records of a log carries exactly those
// records as event lines, oldest first; n <= 0 keeps the whole log.
func TestFlightEventsTail(t *testing.T) {
	var log []trace.Record
	for i := 0; i < 10; i++ {
		log = append(log, trace.Note(vclock.Time(i), trace.KindRolloutStage, "s", fmt.Sprintf("d%d", i)))
	}
	events := func(n int) []string {
		var b bytes.Buffer
		if err := (FlightBundle{Events: trace.Last(log, n)}).WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSpace(b.String()), "\n")[1:]
	}
	got := events(3)
	if len(got) != 3 || !strings.Contains(got[0], `"t_us":7`) || !strings.Contains(got[2], `"detail":"d9"`) {
		t.Fatalf("tail = %q", got)
	}
	if got := events(0); len(got) != 10 {
		t.Fatalf("n=0 should keep all, got %d", len(got))
	}
}

// One host instant must appear exactly once in each view over the decision
// stream: the Chrome trace, the JSONL timeline, the text tail, and a flight
// bundle's events.
func TestOneRecordFourViews(t *testing.T) {
	rec := trace.NewRecorder(16)
	tick := rec.Begin(0, trace.KindSenpaiTick, "senpai tick")
	tick.End(10)
	rec.Instant(20, trace.KindPlacePromote, "web", "outcome", "promoted", "inflight_us", int64(12))

	var chrome, jsonl, flight bytes.Buffer
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	if err := (FlightBundle{Events: rec.Records()}).WriteJSONL(&flight); err != nil {
		t.Fatal(err)
	}
	views := map[string]string{
		"chrome": chrome.String(),
		"jsonl":  jsonl.String(),
		"tail":   rec.Tail(0),
		"flight": flight.String(),
	}
	for name, out := range views {
		if n := strings.Count(out, "place.promote"); n != 1 {
			t.Errorf("%s view holds the instant %d times, want 1:\n%s", name, n, out)
		}
		if !strings.Contains(out, "promoted") || !strings.Contains(out, "12") {
			t.Errorf("%s view lost the instant's args:\n%s", name, out)
		}
	}
	if !strings.Contains(views["flight"], `"detail":"inflight_us=12 outcome=promoted"`) {
		t.Errorf("flight event detail not rendered from args:\n%s", views["flight"])
	}
}
