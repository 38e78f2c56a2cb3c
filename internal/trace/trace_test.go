package trace

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"tmo/internal/vclock"
)

func TestEmitAndEvents(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 3; i++ {
		r.Instant(vclock.Time(i)*vclock.Time(vclock.Second), KindPlacePromote, "web", "n", i)
	}
	recs := r.Records()
	if len(recs) != 3 || r.Len() != 3 || r.Dropped() != 0 {
		t.Fatalf("records = %d, len = %d, dropped = %d", len(recs), r.Len(), r.Dropped())
	}
	if recs[0].Args.Map()["n"] != 0 || recs[2].Args.Map()["n"] != 2 || !recs[2].Instant {
		t.Fatalf("order wrong: %+v", recs)
	}
}

// Past capacity the recorder keeps the run's beginning, so the tail shows
// the newest retained records, never the dropped ones.
func TestRingEviction(t *testing.T) {
	r := NewRecorder(3)
	for i := 0; i < 10; i++ {
		r.Instant(vclock.Time(i), KindChaosInject, fmt.Sprintf("x%d", i))
	}
	tail := r.Tail(2)
	if !strings.Contains(tail, "x1") || !strings.Contains(tail, "x2") || strings.Contains(tail, "x0") {
		t.Fatalf("tail kept wrong window: %q", tail)
	}
	if strings.Contains(tail, "x3") || r.Dropped() != 7 {
		t.Fatalf("dropped record rendered or miscounted (dropped %d): %q", r.Dropped(), tail)
	}
}

func TestTail(t *testing.T) {
	r := NewRecorder(10)
	for i := 0; i < 5; i++ {
		r.Instant(vclock.Time(i), KindChaosInject, "app", "level", i)
	}
	out := r.Tail(2)
	if !strings.Contains(out, "level=3") || !strings.Contains(out, "level=4") || strings.Contains(out, "level=2") {
		t.Fatalf("tail = %q", out)
	}
	if got := r.Tail(0); strings.Count(got, "\n") != 5 {
		t.Fatalf("tail(0) should render all: %q", got)
	}
}

func TestBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic")
		}
	}()
	NewRecorder(0)
}

func TestEventString(t *testing.T) {
	s := Note(vclock.Time(vclock.Second), KindRolloutTrip, "ads", "psi: 0.02 > 0.01").String()
	if !strings.Contains(s, "rollout.guardrail-trip") || !strings.Contains(s, "ads") ||
		!strings.HasSuffix(s, " psi: 0.02 > 0.01") {
		t.Fatalf("note string = %q", s)
	}
	// Typed args render as sorted key=value pairs; spans lead with their
	// duration.
	span := Record{Cat: KindSenpaiReclaim, Name: "probe web", Start: 10, End: 25,
		Args: Args{"requested_bytes", int64(4096), "mem_pressure", 0.5}}
	if got, want := span.Detail(), "dur=15µs mem_pressure=0.5 requested_bytes=4096"; got != want {
		t.Fatalf("span detail = %q, want %q", got, want)
	}
}

// Len and Dropped together count every record ever committed, however far
// past capacity a run goes.
func TestTotalAcrossManyWraps(t *testing.T) {
	const capacity = 7
	r := NewRecorder(capacity)
	const emits = capacity*100 + 3
	for i := 0; i < emits; i++ {
		r.Instant(vclock.Time(i), KindMMSwapFull, "g")
	}
	if total := int64(r.Len()) + r.Dropped(); total != emits {
		t.Fatalf("len+dropped = %d, want %d", total, emits)
	}
	for i, rec := range r.Records() {
		if rec.Start != vclock.Time(i) {
			t.Fatalf("record %d starts at %v, want the run's beginning", i, rec.Start)
		}
	}
}

// The detail column must start at the same offset whether the name is short
// or over-wide; over-wide names are clipped, not allowed to shift the
// columns.
func TestEventStringAlignment(t *testing.T) {
	short := Note(0, KindChaosInject, "web", "DETAIL").String()
	long := Note(0, KindChaosInject, "workload-with-an-extremely-long-cgroup-name", "DETAIL").String()
	si, li := strings.Index(short, "DETAIL"), strings.Index(long, "DETAIL")
	if si < 0 || si != li {
		t.Fatalf("detail offsets differ: %d vs %d\n%q\n%q", si, li, short, long)
	}
	if !strings.Contains(long, "~") {
		t.Fatalf("long name not clipped: %q", long)
	}
	if strings.Contains(short, "~") {
		t.Fatalf("short name clipped: %q", short)
	}
	// Clipping must also hold for over-wide kinds.
	wide := Note(0, Kind("some.very.long.subsystem.kind.name"), "s", "DETAIL").String()
	if wi := strings.Index(wide, "DETAIL"); wi != si {
		t.Fatalf("wide kind shifted detail column: %d vs %d\n%q", wi, si, wide)
	}
}

// Property: the recorder always keeps exactly the first min(n, cap) records,
// chronologically ordered, and the tail renders one line per kept record.
func TestRingInvariant(t *testing.T) {
	f := func(n uint8, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		r := NewRecorder(capacity)
		for i := 0; i < int(n); i++ {
			r.Instant(vclock.Time(i), KindChaosRestore, "s")
		}
		want := min(int(n), capacity)
		recs := r.Records()
		if len(recs) != want || r.Dropped() != int64(int(n)-want) {
			return false
		}
		for i := range recs {
			if recs[i].Start != vclock.Time(i) {
				return false
			}
		}
		return strings.Count(r.Tail(0), "\n") == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
