package telemetry_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"tmo/internal/metrics"
	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// The telemetry registry and the span recorder are the two halves of the
// observability layer; this exercises them together the way core.System
// wires them: a controller tick publishes counters while opening nested
// decision spans, then both are exported.
func TestRegistryWithSpanNesting(t *testing.T) {
	reg := telemetry.NewRegistry()
	var probeBytes metrics.Histogram
	reg.Histogram("senpai.probe_bytes", &probeBytes)
	rec := trace.NewRecorder(64)

	now := vclock.Time(0)
	for i := 0; i < 3; i++ {
		tick := rec.Begin(now, trace.KindSenpaiTick, "senpai tick")
		reg.Counter("senpai.runs").Inc()
		for _, g := range []string{"web", "feed"} {
			probe := rec.Begin(now, trace.KindSenpaiReclaim, "probe "+g)
			reg.Counter("senpai.reclaim_decisions").Inc()
			probeBytes.Record(1 << 20)
			probe.Annotate("group", g)
			now += 500
			probe.End(now)
		}
		tick.End(now)
		now += 1000
	}

	// A span is committed when it ends, so all nine begun spans must be.
	if rec.Len() != 9 {
		t.Fatalf("unbalanced spans: %d of 9 committed", rec.Len())
	}

	// Span structure: 3 ticks at depth 0, 6 probes at depth 1, children
	// contained in their parent's interval.
	var ticks, probes int
	recs := rec.Records()
	for _, r := range recs {
		switch r.Depth {
		case 0:
			ticks++
		case 1:
			probes++
		default:
			t.Fatalf("unexpected depth %d: %+v", r.Depth, r)
		}
	}
	if ticks != 3 || probes != 6 {
		t.Fatalf("ticks=%d probes=%d", ticks, probes)
	}

	// Registry state agrees with the spans that produced it.
	snap := reg.Snapshot()
	if m, _ := snap.Get("senpai.runs"); m.Value != 3 {
		t.Fatalf("runs = %v", m.Value)
	}
	if m, _ := snap.Get("senpai.reclaim_decisions"); m.Value != 6 {
		t.Fatalf("decisions = %v", m.Value)
	}
	if m, _ := snap.Get("senpai.probe_bytes"); m.Count != 6 {
		t.Fatalf("probe_bytes count = %d", m.Count)
	}

	// Both exporters produce well-formed output from the same run.
	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(prom.String(), "senpai_probe_bytes_count 6") {
		t.Fatalf("prometheus dump incomplete:\n%s", prom.String())
	}
	var chrome bytes.Buffer
	if err := rec.WriteChromeTrace(&chrome); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(doc.TraceEvents) != len(recs) {
		t.Fatalf("chrome events = %d, records = %d", len(doc.TraceEvents), len(recs))
	}
}
