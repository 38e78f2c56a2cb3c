package psi

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"tmo/internal/vclock"
)

const sec = vclock.Second

// TestFigure7Semantics reproduces the paper's Figure 7 worked example: a
// 100-unit timeline split into quarters, two processes A and B.
//
//   - Quarter 1: only one process stalls at a time, 12.5 units in total
//     -> some += 12.5, full += 0.
//   - Quarter 2: the stalls overlap for 6.25 units; the union of stalled
//     time is 18.75 units -> some += 18.75, full += 6.25.
func TestFigure7Semantics(t *testing.T) {
	tr := NewTracker(0)
	at := func(units float64) vclock.Time { return vclock.Time(units * float64(sec)) }

	tr.TaskStart(0) // A
	tr.TaskStart(0) // B

	// Quarter 1 (0-25): A stalls [5, 11.25), B stalls [15, 21.25).
	tr.StallStart(at(5), Memory)
	tr.StallStop(at(11.25), Memory)
	tr.StallStart(at(15), Memory)
	tr.StallStop(at(21.25), Memory)

	tr.Sync(at(25))
	if got, want := tr.Total(Memory, Some), vclock.Duration(12.5*float64(sec)); got != want {
		t.Fatalf("Q1 some = %v, want %v", got, want)
	}
	if got := tr.Total(Memory, Full); got != 0 {
		t.Fatalf("Q1 full = %v, want 0", got)
	}

	// Quarter 2 (25-50): A stalls [25, 37.5), B stalls [31.25, 43.75).
	tr.StallStart(at(25), Memory)    // A
	tr.StallStart(at(31.25), Memory) // B -> both stalled
	tr.StallStop(at(37.5), Memory)   // A resumes
	tr.StallStop(at(43.75), Memory)  // B resumes

	tr.Sync(at(50))
	if got, want := tr.Total(Memory, Some), vclock.Duration((12.5+18.75)*float64(sec)); got != want {
		t.Fatalf("after Q2 some = %v, want %v", got, want)
	}
	if got, want := tr.Total(Memory, Full), vclock.Duration(6.25*float64(sec)); got != want {
		t.Fatalf("after Q2 full = %v, want %v", got, want)
	}
}

func TestFullWhenOnlyTaskStalls(t *testing.T) {
	// A domain with a single non-idle task: any stall is both some and full.
	tr := NewTracker(0)
	tr.TaskStart(0)
	tr.StallStart(vclock.Time(1*sec), IO)
	tr.StallStop(vclock.Time(3*sec), IO)
	tr.Sync(vclock.Time(10 * sec))
	if tr.Total(IO, Some) != 2*sec || tr.Total(IO, Full) != 2*sec {
		t.Fatalf("some=%v full=%v, want 2s each", tr.Total(IO, Some), tr.Total(IO, Full))
	}
}

func TestFullRequiresAllNonIdleStalled(t *testing.T) {
	tr := NewTracker(0)
	tr.TaskStart(0)
	tr.TaskStart(0)
	tr.StallStart(vclock.Time(0), Memory)
	tr.Sync(vclock.Time(4 * sec))
	// One of two tasks stalled: some only.
	if tr.Total(Memory, Some) != 4*sec || tr.Total(Memory, Full) != 0 {
		t.Fatalf("some=%v full=%v", tr.Total(Memory, Some), tr.Total(Memory, Full))
	}
	// The second task goes idle; now all remaining non-idle tasks stall.
	tr.TaskStop(vclock.Time(4 * sec))
	tr.Sync(vclock.Time(6 * sec))
	if tr.Total(Memory, Full) != 2*sec {
		t.Fatalf("full after idle = %v, want 2s", tr.Total(Memory, Full))
	}
	tr.StallStop(vclock.Time(6*sec), Memory)
}

func TestResourcesIndependent(t *testing.T) {
	tr := NewTracker(0)
	tr.TaskStart(0)
	tr.StallStart(vclock.Time(0), Memory)
	tr.StallStop(vclock.Time(1*sec), Memory)
	tr.StallStart(vclock.Time(2*sec), IO)
	tr.StallStop(vclock.Time(5*sec), IO)
	tr.Sync(vclock.Time(10 * sec))
	if tr.Total(Memory, Some) != 1*sec {
		t.Fatalf("memory some = %v", tr.Total(Memory, Some))
	}
	if tr.Total(IO, Some) != 3*sec {
		t.Fatalf("io some = %v", tr.Total(IO, Some))
	}
	if tr.Total(CPU, Some) != 0 {
		t.Fatalf("cpu some = %v", tr.Total(CPU, Some))
	}
}

func TestSimultaneousEventsZeroWidth(t *testing.T) {
	tr := NewTracker(0)
	tr.TaskStart(0)
	now := vclock.Time(5 * sec)
	tr.StallStart(now, Memory)
	tr.StallStop(now, Memory) // zero-length stall
	tr.Sync(vclock.Time(10 * sec))
	if tr.Total(Memory, Some) != 0 {
		t.Fatalf("zero-width stall accounted time: %v", tr.Total(Memory, Some))
	}
}

func TestBackwardsTimePanics(t *testing.T) {
	tr := NewTracker(vclock.Time(10 * sec))
	tr.TaskStart(vclock.Time(10 * sec))
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic for backwards event")
		}
	}()
	tr.TaskStart(vclock.Time(5 * sec))
}

func TestUnbalancedStallPanics(t *testing.T) {
	tr := NewTracker(0)
	tr.TaskStart(0)
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic for unbalanced StallStop")
		}
	}()
	tr.StallStop(vclock.Time(sec), Memory)
}

func TestMoreStalledThanNonIdlePanics(t *testing.T) {
	tr := NewTracker(0)
	tr.TaskStart(0)
	tr.StallStart(0, Memory)
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic for stalled > nonIdle")
		}
	}()
	tr.StallStart(0, Memory)
}

func TestUpdateAveragesConverges(t *testing.T) {
	// A task permanently stalled 30% of every 2-second period should drive
	// avg10 toward 0.30.
	tr := NewTracker(0)
	tr.TaskStart(0)
	now := vclock.Time(0)
	for i := 0; i < 60; i++ {
		tr.StallStart(now, Memory)
		tr.StallStop(now.Add(600*vclock.Millisecond), Memory)
		now = now.Add(2 * sec)
		tr.UpdateAverages(now)
	}
	if got := tr.Avg(Memory, Some, Avg10); math.Abs(got-0.30) > 0.01 {
		t.Fatalf("avg10 = %v, want ~0.30", got)
	}
	// The 5-minute average lags behind the 10-second one during ramp-up.
	if a10, a300 := tr.Avg(Memory, Some, Avg10), tr.Avg(Memory, Some, Avg300); a300 > a10 {
		t.Fatalf("avg300 (%v) overtook avg10 (%v) during ramp", a300, a10)
	}
}

func TestAveragesDecayAfterStallEnds(t *testing.T) {
	tr := NewTracker(0)
	tr.TaskStart(0)
	tr.StallStart(0, IO)
	tr.StallStop(vclock.Time(10*sec), IO)
	tr.UpdateAverages(vclock.Time(10 * sec))
	peak := tr.Avg(IO, Some, Avg10)
	if peak < 0.5 {
		t.Fatalf("peak avg10 = %v, want >= 0.5", peak)
	}
	now := vclock.Time(10 * sec)
	for i := 0; i < 30; i++ {
		now = now.Add(2 * sec)
		tr.UpdateAverages(now)
	}
	if got := tr.Avg(IO, Some, Avg10); got > 0.01 {
		t.Fatalf("avg10 did not decay: %v", got)
	}
}

func TestPressureFileFormat(t *testing.T) {
	tr := NewTracker(0)
	tr.TaskStart(0)
	tr.StallStart(0, Memory)
	tr.StallStop(vclock.Time(sec), Memory)
	tr.UpdateAverages(vclock.Time(2 * sec))
	out := tr.PressureFile(Memory)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("pressure file has %d lines: %q", len(lines), out)
	}
	if !strings.HasPrefix(lines[0], "some avg10=") || !strings.HasPrefix(lines[1], "full avg10=") {
		t.Fatalf("unexpected pressure file: %q", out)
	}
	if !strings.Contains(lines[0], "total=1000000") {
		t.Fatalf("some total missing: %q", lines[0])
	}
}

func TestResourceAndKindStrings(t *testing.T) {
	if CPU.String() != "cpu" || Memory.String() != "memory" || IO.String() != "io" {
		t.Fatalf("resource names wrong")
	}
	if Some.String() != "some" || Full.String() != "full" {
		t.Fatalf("kind names wrong")
	}
	if got := Resource(9).String(); !strings.Contains(got, "9") {
		t.Fatalf("unknown resource string: %q", got)
	}
}

func TestWindowedPressure(t *testing.T) {
	if p := WindowedPressure(0, vclock.Duration(sec), 10*sec); math.Abs(p-0.1) > 1e-12 {
		t.Fatalf("pressure = %v, want 0.1", p)
	}
	if p := WindowedPressure(5, 3, 10*sec); p != 0 {
		t.Fatalf("negative delta should clamp to 0, got %v", p)
	}
	if p := WindowedPressure(0, vclock.Duration(20*sec), 10*sec); p != 1 {
		t.Fatalf("overflow delta should clamp to 1, got %v", p)
	}
	if p := WindowedPressure(0, 100, 0); p != 0 {
		t.Fatalf("zero interval should report 0, got %v", p)
	}
}

// A Baseline differences successive reads; a zero-interval read records the
// total without reporting pressure, so the next window starts there.
func TestBaselineDifferencesReads(t *testing.T) {
	var b Baseline
	if p := b.Read(vclock.Duration(4*sec), 0); p != 0 {
		t.Fatalf("zero-interval read reported %v, want 0", p)
	}
	if p := b.Read(vclock.Duration(5*sec), 10*sec); math.Abs(p-0.1) > 1e-12 {
		t.Fatalf("pressure = %v, want 0.1 over the recorded baseline", p)
	}
	if p := b.Read(vclock.Duration(5*sec), 0); p != 0 {
		t.Fatalf("second zero-interval read reported %v, want 0", p)
	}
	if p := b.Read(vclock.Duration(7*sec), 4*sec); p != 0.5 {
		t.Fatalf("pressure = %v, want 0.5", p)
	}
	var fresh Baseline
	if p := fresh.Read(vclock.Duration(sec), 10*sec); math.Abs(p-0.1) > 1e-12 {
		t.Fatalf("unprimed baseline read %v, want 0.1 from zero", p)
	}
}

// Property: full never exceeds some, and neither exceeds elapsed time, for
// arbitrary interleavings of stall events from up to three tasks.
func TestSomeFullInvariant(t *testing.T) {
	type step struct {
		Gap   uint16 // microseconds to advance
		Task  uint8  // task index 0..2
		Begin bool   // begin or end a stall
		Res   uint8  // resource 0..2
	}
	f := func(steps []step) bool {
		tr := NewTracker(0)
		const nTasks = 3
		stalledOn := [nTasks]int{-1, -1, -1}
		now := vclock.Time(0)
		for i := 0; i < nTasks; i++ {
			tr.TaskStart(0)
		}
		start := now
		for _, s := range steps {
			now = now.Add(vclock.Duration(s.Gap))
			task := int(s.Task) % nTasks
			res := Resource(s.Res) % NumResources
			if s.Begin && stalledOn[task] == -1 {
				tr.StallStart(now, res)
				stalledOn[task] = int(res)
			} else if !s.Begin && stalledOn[task] != -1 {
				tr.StallStop(now, Resource(stalledOn[task]))
				stalledOn[task] = -1
			}
		}
		now = now.Add(vclock.Duration(1))
		// Close all open stalls before the final check.
		for task, r := range stalledOn {
			if r != -1 {
				tr.StallStop(now, Resource(r))
				stalledOn[task] = -1
			}
		}
		tr.Sync(now)
		elapsed := now.Sub(start)
		for r := Resource(0); r < NumResources; r++ {
			some, full := tr.Total(r, Some), tr.Total(r, Full)
			if full > some || some > elapsed || full < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
