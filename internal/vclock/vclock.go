// Package vclock provides the virtual time base used by every component of
// the TMO simulator.
//
// All simulated subsystems — the memory manager, PSI accounting, offload
// backends, and the Senpai controller — operate on the same monotonic virtual
// clock so that experiments are fully deterministic and can simulate hours of
// wall time in seconds. Time is represented as an integer number of
// microseconds, which matches the resolution at which the Linux PSI
// implementation aggregates stall time.
package vclock

import (
	"fmt"
	"time"
)

// Time is an instant on the virtual timeline, in microseconds since the
// start of the simulation. The zero Time is the beginning of a run.
type Time int64

// Duration is a span of virtual time in microseconds.
type Duration int64

// Common durations, expressed in the clock's microsecond base unit.
const (
	Microsecond Duration = 1
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
	Minute               = 60 * Second
	Hour                 = 60 * Minute
	Day                  = 24 * Hour
)

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration elapsed from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Seconds returns the time as a floating-point number of seconds since the
// start of the simulation.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the instant as elapsed virtual time, e.g. "1h23m45.6s".
func (t Time) String() string { return Duration(t).String() }

// Seconds returns the duration as a floating-point number of seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// Micros returns the duration as an integer number of microseconds.
func (d Duration) Micros() int64 { return int64(d) }

// Std converts the virtual duration to a standard library time.Duration.
func (d Duration) Std() time.Duration { return time.Duration(d) * time.Microsecond }

// FromStd converts a standard library duration to a virtual Duration,
// truncating to microsecond resolution.
func FromStd(d time.Duration) Duration { return Duration(d / time.Microsecond) }

// String formats the duration using the standard library's representation.
func (d Duration) String() string { return d.Std().String() }

// Clock is a monotonic virtual clock. It is advanced explicitly by the
// simulation driver; nothing in the simulator reads wall-clock time.
//
// Clock is not safe for concurrent use. The simulator is single-threaded by
// design: determinism is a core requirement for reproducing the paper's
// figures, and a virtual-time discrete simulation gains nothing from
// parallelism within one server.
type Clock struct {
	now Time
}

// NewClock returns a clock positioned at the zero instant.
func NewClock() *Clock { return &Clock{} }

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// AdvanceTo moves the clock forward to instant t. It panics if t is in the
// past.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("vclock: advance to past instant %d (now %d)", t, c.now))
	}
	c.now = t
}

// Cadence gates a periodic agent that is called every simulation tick but
// acts only once its period has elapsed, the way Senpai, oomd and the
// placement loop run on their own schedule.
type Cadence struct {
	last    Time
	started bool
}

// Due reports whether the agent acts at now, and the time elapsed since it
// last did. The first call primes the cadence: it returns (0, true), so the
// agent reads its baselines without acting on them. Later calls return true
// once period has elapsed. The period is passed on each call because an
// agent's configuration may change it at run time.
func (c *Cadence) Due(now Time, period Duration) (Duration, bool) {
	if !c.started {
		c.started, c.last = true, now
		return 0, true
	}
	elapsed := now.Sub(c.last)
	if elapsed < period {
		return 0, false
	}
	c.last = now
	return elapsed, true
}
