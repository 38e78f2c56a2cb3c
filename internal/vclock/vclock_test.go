package vclock

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if got := c.Now(); got != 0 {
		t.Fatalf("new clock Now() = %v, want 0", got)
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(c.Now().Add(5 * Second))
	if got := c.Now(); got != Time(5*Second) {
		t.Fatalf("Now() = %v, want 5s", got)
	}
	c.AdvanceTo(c.Now().Add(250 * Millisecond))
	if got := c.Now().Seconds(); got != 5.25 {
		t.Fatalf("Seconds() = %v, want 5.25", got)
	}
}

func TestClockAdvanceZeroAllowed(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(c.Now())
	if c.Now() != 0 {
		t.Fatalf("zero advance moved the clock")
	}
}

func TestClockNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("AdvanceTo(-1) did not panic")
		}
	}()
	NewClock().AdvanceTo(-1)
}

func TestClockAdvanceTo(t *testing.T) {
	c := NewClock()
	c.AdvanceTo(Time(3 * Minute))
	if c.Now() != Time(3*Minute) {
		t.Fatalf("AdvanceTo failed: %v", c.Now())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("AdvanceTo(past) did not panic")
		}
	}()
	c.AdvanceTo(Time(1 * Minute))
}

func TestTimeArithmetic(t *testing.T) {
	t0 := Time(10 * Second)
	t1 := t0.Add(90 * Second)
	if t1.Sub(t0) != 90*Second {
		t.Fatalf("Sub = %v, want 90s", t1.Sub(t0))
	}
	if t1 != Time(100*Second) {
		t.Fatalf("Add = %v, want 100s", t1)
	}
}

func TestDurationConversions(t *testing.T) {
	d := 1500 * Millisecond
	if d.Seconds() != 1.5 {
		t.Fatalf("Seconds() = %v", d.Seconds())
	}
	if d.Micros() != 1_500_000 {
		t.Fatalf("Micros() = %v", d.Micros())
	}
	if d.Std() != 1500*time.Millisecond {
		t.Fatalf("Std() = %v", d.Std())
	}
	if FromStd(2*time.Second) != 2*Second {
		t.Fatalf("FromStd = %v", FromStd(2*time.Second))
	}
}

func TestDurationString(t *testing.T) {
	if got := (90 * Second).String(); got != "1m30s" {
		t.Fatalf("String() = %q, want \"1m30s\"", got)
	}
}

// Property: Add and Sub are inverse operations for any pair of instants.
func TestAddSubRoundTrip(t *testing.T) {
	f := func(base int64, delta int32) bool {
		t0 := Time(base)
		d := Duration(delta)
		return t0.Add(d).Sub(t0) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the clock is monotonically non-decreasing under any sequence of
// non-negative advances, and the final reading equals the sum of advances.
func TestClockMonotone(t *testing.T) {
	f := func(steps []uint16) bool {
		c := NewClock()
		var sum Time
		for _, s := range steps {
			prev := c.Now()
			c.AdvanceTo(prev.Add(Duration(s)))
			now := c.Now()
			if now < prev {
				return false
			}
			sum += Time(s)
		}
		return c.Now() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCadencePrimesThenFiresAtPeriod(t *testing.T) {
	var c Cadence
	if d, ok := c.Due(Time(3*Second), Second); !ok || d != 0 {
		t.Fatalf("first call = (%v, %v), want the prime (0, true)", d, ok)
	}
	if _, ok := c.Due(Time(3*Second+999*Millisecond), Second); ok {
		t.Fatalf("fired before the period elapsed")
	}
	if d, ok := c.Due(Time(4*Second), Second); !ok || d != Second {
		t.Fatalf("call at exactly one period = (%v, %v), want (1s, true)", d, ok)
	}
	if d, ok := c.Due(Time(5500*Millisecond), Second); !ok || d != 1500*Millisecond {
		t.Fatalf("late call = (%v, %v), want (1.5s, true)", d, ok)
	}
}

// A period changed between calls applies to the very next call, measured
// from the last firing.
func TestCadencePeriodChangeAppliesNextCall(t *testing.T) {
	var c Cadence
	c.Due(0, 6*Second)
	if _, ok := c.Due(Time(3*Second), 6*Second); ok {
		t.Fatalf("fired at 3s with a 6s period")
	}
	if d, ok := c.Due(Time(3*Second), 2*Second); !ok || d != 3*Second {
		t.Fatalf("after shortening the period to 2s: (%v, %v), want (3s, true)", d, ok)
	}
	if _, ok := c.Due(Time(8*Second), 6*Second); ok {
		t.Fatalf("fired 5s after the last firing with a 6s period")
	}
}
