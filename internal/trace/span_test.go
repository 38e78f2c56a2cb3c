package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"tmo/internal/vclock"
)

func TestSpanNesting(t *testing.T) {
	r := NewRecorder(16)
	tick := r.Begin(0, KindSenpaiTick, "tick")
	probe := r.Begin(10, KindSenpaiReclaim, "probe web")
	probe.Annotate("mem_pressure", 0.0004)
	reclaim := r.Begin(12, KindSenpaiReclaim, "memory.reclaim")
	reclaim.End(20)
	probe.End(25)
	r.Instant(26, KindMMSwapFull, "pool full")
	tick.End(30)

	if len(r.stack) != 0 {
		t.Fatalf("open spans = %d", len(r.stack))
	}
	recs := r.Records()
	if len(recs) != 4 {
		t.Fatalf("records = %d", len(recs))
	}
	// Ordered by start, parents before children.
	wantNames := []string{"tick", "probe web", "memory.reclaim", "pool full"}
	wantDepth := []int{0, 1, 2, 1}
	for i, rec := range recs {
		if rec.Name != wantNames[i] || rec.Depth != wantDepth[i] {
			t.Fatalf("record %d = %q depth %d, want %q depth %d",
				i, rec.Name, rec.Depth, wantNames[i], wantDepth[i])
		}
	}
	if recs[0].Duration() != 30 || recs[1].Duration() != 15 {
		t.Fatalf("durations wrong: %v %v", recs[0].Duration(), recs[1].Duration())
	}
	if !recs[3].Instant || recs[3].Duration() != 0 {
		t.Fatalf("instant record wrong: %+v", recs[3])
	}
	if recs[1].Args.Map()["mem_pressure"] != 0.0004 {
		t.Fatalf("annotation lost: %+v", recs[1].Args)
	}
	// Children are contained in their parent's interval — the property
	// Perfetto uses to reconstruct the stack on one track.
	if recs[2].Start < recs[1].Start || recs[2].End > recs[1].End {
		t.Fatalf("child escapes parent: %+v in %+v", recs[2], recs[1])
	}
}

func TestSpanOutOfOrderEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	r := NewRecorder(4)
	a := r.Begin(0, KindSenpaiTick, "a")
	_ = r.Begin(1, KindSenpaiTick, "b")
	a.End(2) // b is still open
}

func TestSpanDoubleEndIsNoop(t *testing.T) {
	r := NewRecorder(4)
	a := r.Begin(0, KindSenpaiTick, "a")
	a.End(5)
	a.End(9) // ignored
	if r.Len() != 1 || r.Records()[0].End != 5 {
		t.Fatalf("double end changed the record: %+v", r.Records())
	}
}

func TestRecorderDropsAtCapacity(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Instant(vclock.Time(i), KindPlaceDemote, "e")
	}
	if r.Len() != 2 || r.Dropped() != 3 {
		t.Fatalf("len=%d dropped=%d", r.Len(), r.Dropped())
	}
	// The beginning of the run is preserved, not the end.
	if r.Records()[0].Start != 0 || r.Records()[1].Start != 1 {
		t.Fatalf("kept wrong records: %+v", r.Records())
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRecorder(16)
	tick := r.Begin(1000, KindSenpaiTick, "tick")
	probe := r.Begin(1100, KindSenpaiReclaim, "probe feed")
	probe.Annotate("requested_bytes", int64(4096))
	probe.End(1400)
	tick.End(1500)
	r.Instant(1600, KindChaosInject, "ssd-slow", "fault", "ssd-slow")

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Unit        string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("events = %d", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev["ph"] != "X" || ev["ts"] != float64(1000) || ev["dur"] != float64(500) {
		t.Fatalf("tick event wrong: %+v", ev)
	}
	if ev["pid"] != float64(1) || ev["tid"] != float64(1) {
		t.Fatalf("track ids wrong: %+v", ev)
	}
	if doc.TraceEvents[1]["cat"] != "senpai.reclaim" {
		t.Fatalf("cat wrong: %+v", doc.TraceEvents[1])
	}
	inst := doc.TraceEvents[2]
	if inst["ph"] != "i" || inst["s"] != "t" {
		t.Fatalf("instant event wrong: %+v", inst)
	}
}

func TestJSONLExport(t *testing.T) {
	r := NewRecorder(16)
	s := r.Begin(5, KindSenpaiTick, "tick")
	s.End(25)
	r.Instant(30, KindMMSwapFull, "web", "pages", 8)

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d: %q", len(lines), buf.String())
	}
	var first, second map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatal(err)
	}
	if first["type"] != "span" || first["dur_us"] != float64(20) || first["t"] != float64(5) {
		t.Fatalf("span line wrong: %+v", first)
	}
	if second["type"] != "event" || second["cat"] != "mm.swap-full" {
		t.Fatalf("event line wrong: %+v", second)
	}
}

// Args must encode exactly as a map of the same pairs does — the exported
// traces stay byte-identical to a map-backed encoding.
func TestArgsMarshalLikeMap(t *testing.T) {
	args := Args{"z", 1e-7, "a", int64(4096), "m", "<&>", "b", true, "f", 0.0004}
	m := map[string]any{}
	for i := 0; i < len(args); i += 2 {
		m[args[i].(string)] = args[i+1]
	}
	got, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(m)
	if !bytes.Equal(got, want) {
		t.Fatalf("Args encode as %s, map as %s", got, want)
	}
}

// A non-finite argument exports as its Prometheus spelling, and the records
// after it are still written, in both formats.
func TestNonFiniteArgsExportInFull(t *testing.T) {
	r := NewRecorder(16)
	r.Instant(1, KindPlaceDemote, "a", "v", math.NaN())
	r.Instant(2, KindPlaceDemote, "b", "v", math.Inf(1))
	r.Instant(3, KindPlaceDemote, "c", "v", math.Inf(-1))
	r.Instant(4, KindPlaceDemote, "d", "v", 0.25)
	want := []any{"NaN", "+Inf", "-Inf", 0.25}

	var jsonl bytes.Buffer
	if err := r.WriteJSONL(&jsonl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != len(want) {
		t.Fatalf("JSONL holds %d of %d records:\n%s", len(lines), len(want), jsonl.String())
	}
	for i, line := range lines {
		var rec struct{ Args map[string]any }
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Args["v"] != want[i] {
			t.Fatalf("JSONL record %d has v=%v, want %v", i, rec.Args["v"], want[i])
		}
	}

	var chrome bytes.Buffer
	if err := r.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct{ Args map[string]any }
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != len(want) {
		t.Fatalf("Chrome trace holds %d of %d records", len(doc.TraceEvents), len(want))
	}
	for i, ev := range doc.TraceEvents {
		if ev.Args["v"] != want[i] {
			t.Fatalf("Chrome event %d has v=%v, want %v", i, ev.Args["v"], want[i])
		}
	}
}
