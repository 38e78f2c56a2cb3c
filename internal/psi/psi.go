// Package psi implements Pressure Stall Information accounting, the first of
// TMO's two core contributions (§3.2 of the paper).
//
// PSI measures the share of wall time in which the tasks of a domain (a
// process group, a container, or the whole system) lose work to a resource
// shortage. For each of CPU, memory, and IO it maintains two indicators:
//
//   - some: the fraction of time during which at least one non-idle task in
//     the domain was stalled on the resource. It captures added latency to
//     individual tasks.
//   - full: the fraction of time during which *all* non-idle tasks were
//     stalled simultaneously — completely unproductive time for the domain.
//
// The accounting here mirrors the upstream kernel implementation
// (kernel/sched/psi.c) restated over the simulator's virtual clock: the
// tracker keeps per-domain counts of non-idle and stalled tasks, integrates
// stall time exactly between state-change events, and maintains total
// counters plus decayed running averages over 10 s / 1 m / 5 m windows.
//
// Memory stalls are registered by the memory-management substrate on the
// three occasions §3.2.3 enumerates: direct reclaim on allocation, refaults
// of recently evicted file cache, and swap-in reads. IO stalls are
// registered whenever a task waits on block IO, matching the paper's
// decision to treat all block-IO waiting as IO pressure.
package psi

import (
	"fmt"
	"math"

	"tmo/internal/vclock"
)

// Resource identifies one of the three tracked resources.
type Resource int

// The tracked resources.
const (
	CPU Resource = iota
	Memory
	IO
	NumResources
)

// String returns the kernel's name for the resource's pressure file.
func (r Resource) String() string {
	switch r {
	case CPU:
		return "cpu"
	case Memory:
		return "memory"
	case IO:
		return "io"
	}
	return fmt.Sprintf("resource(%d)", int(r))
}

// Kind selects between the two pressure indicators.
type Kind int

// The two pressure indicators.
const (
	Some Kind = iota
	Full
)

// String returns the indicator's name as it appears in pressure files.
func (k Kind) String() string {
	if k == Some {
		return "some"
	}
	return "full"
}

// Window identifies one of the running-average horizons the kernel exposes.
type Window int

// The kernel's three averaging windows.
const (
	Avg10 Window = iota
	Avg60
	Avg300
	numWindows
)

// windowLen maps each averaging horizon to its duration.
var windowLen = [numWindows]vclock.Duration{
	Avg10:  10 * vclock.Second,
	Avg60:  60 * vclock.Second,
	Avg300: 300 * vclock.Second,
}

// AvgUpdateInterval is how often the kernel folds total counters into the
// running averages; the simulator calls UpdateAverages at least this often.
const AvgUpdateInterval = 2 * vclock.Second

// Tracker accounts pressure for a single domain. It is driven by explicit
// task state-change events with non-decreasing timestamps; between events it
// integrates some/full time exactly, giving the precise interval semantics
// of the paper's Figure 7.
//
// Tracker is not safe for concurrent use; the simulation is single-threaded.
type Tracker struct {
	lastEvent vclock.Time

	nonIdle int
	stalled [NumResources]int

	totals [NumResources][2]vclock.Duration

	avgs        [NumResources][2][numWindows]float64
	lastAvgTime vclock.Time
	lastAvgTot  [NumResources][2]vclock.Duration

	// alpha caches the per-window EWMA weights 1-exp(-period/window) for
	// the last observed update period. The simulation drives UpdateAverages
	// on a fixed tick, so after the first call the three exponentials are
	// never recomputed; six trackers per host times three windows made
	// this one of the measured hot spots.
	alphaPeriod vclock.Duration
	alpha       [numWindows]float64
}

// NewTracker returns a tracker whose accounting starts at instant start.
func NewTracker(start vclock.Time) *Tracker {
	return &Tracker{lastEvent: start, lastAvgTime: start}
}

// advance integrates pressure time from the last event to now.
func (t *Tracker) advance(now vclock.Time) {
	dt := now.Sub(t.lastEvent)
	if dt < 0 {
		panic(fmt.Sprintf("psi: event timestamp went backwards: now=%v last=%v", now, t.lastEvent))
	}
	if dt == 0 {
		return
	}
	for r := Resource(0); r < NumResources; r++ {
		if t.stalled[r] > 0 {
			t.totals[r][Some] += dt
			if t.stalled[r] >= t.nonIdle {
				t.totals[r][Full] += dt
			}
		}
	}
	t.lastEvent = now
}

// TaskStart records that a task in the domain became non-idle at time now.
func (t *Tracker) TaskStart(now vclock.Time) {
	t.advance(now)
	t.nonIdle++
}

// TaskStop records that a non-idle task went idle (left the domain or went
// to sleep on something other than a resource stall).
func (t *Tracker) TaskStop(now vclock.Time) {
	t.advance(now)
	if t.nonIdle <= 0 {
		panic("psi: TaskStop without matching TaskStart")
	}
	t.nonIdle--
}

// StallStart records that one non-idle task began stalling on resource r.
func (t *Tracker) StallStart(now vclock.Time, r Resource) {
	t.advance(now)
	if t.stalled[r] >= t.nonIdle {
		panic(fmt.Sprintf("psi: more tasks stalled on %v than non-idle", r))
	}
	t.stalled[r]++
}

// StallStop records the end of one task's stall on resource r.
func (t *Tracker) StallStop(now vclock.Time, r Resource) {
	t.advance(now)
	if t.stalled[r] <= 0 {
		panic(fmt.Sprintf("psi: StallStop on %v without matching StallStart", r))
	}
	t.stalled[r]--
}

// Sync integrates pressure up to now without changing task state. Callers
// use it before reading totals so that in-progress stalls are reflected.
func (t *Tracker) Sync(now vclock.Time) { t.advance(now) }

// Total returns the accumulated stall time for (r, k) up to the last event
// or Sync.
func (t *Tracker) Total(r Resource, k Kind) vclock.Duration { return t.totals[r][k] }

// UpdateAverages folds the stall time accumulated since the previous call
// into the decayed running averages, using the kernel's update rule: the
// period's observed pressure fraction moves each average toward itself with
// weight 1-exp(-period/window).
func (t *Tracker) UpdateAverages(now vclock.Time) {
	t.advance(now)
	period := now.Sub(t.lastAvgTime)
	if period <= 0 {
		return
	}
	if period != t.alphaPeriod {
		for w := Window(0); w < numWindows; w++ {
			t.alpha[w] = 1 - math.Exp(-float64(period)/float64(windowLen[w]))
		}
		t.alphaPeriod = period
	}
	for r := Resource(0); r < NumResources; r++ {
		for k := Some; k <= Full; k++ {
			delta := t.totals[r][k] - t.lastAvgTot[r][k]
			pct := float64(delta) / float64(period)
			if pct > 1 {
				pct = 1
			}
			for w := Window(0); w < numWindows; w++ {
				t.avgs[r][k][w] += t.alpha[w] * (pct - t.avgs[r][k][w])
			}
			t.lastAvgTot[r][k] = t.totals[r][k]
		}
	}
	t.lastAvgTime = now
}

// Avg returns the decayed running average for (r, k) over the given window,
// as a fraction in [0, 1].
func (t *Tracker) Avg(r Resource, k Kind, w Window) float64 { return t.avgs[r][k][w] }

// PressureFile renders the domain's pressure for resource r in the format of
// the kernel's cgroup pressure files, e.g.:
//
//	some avg10=1.23 avg60=0.40 avg300=0.10 total=12345
//	full avg10=0.00 avg60=0.00 avg300=0.00 total=0
//
// Averages are percentages; total is in microseconds, as in the kernel.
func (t *Tracker) PressureFile(r Resource) string {
	line := func(k Kind) string {
		return fmt.Sprintf("%s avg10=%.2f avg60=%.2f avg300=%.2f total=%d",
			k, 100*t.avgs[r][k][Avg10], 100*t.avgs[r][k][Avg60], 100*t.avgs[r][k][Avg300],
			t.totals[r][k].Micros())
	}
	return line(Some) + "\n" + line(Full) + "\n"
}

// WindowedPressure reports the average pressure fraction for (r, k) between
// two total readings taken interval apart.
func WindowedPressure(prev, cur vclock.Duration, interval vclock.Duration) float64 {
	if interval <= 0 {
		return 0
	}
	p := float64(cur-prev) / float64(interval)
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

// Baseline is the previous reading of one cumulative stall total. This is
// how the userspace agents consume PSI: each samples Total at its own
// cadence and differences the readings, exactly like the production senpai
// daemon does with the pressure-file total field.
type Baseline struct{ last vclock.Duration }

// Read returns the pressure fraction of total since the previous read,
// taken interval ago, and keeps total as the next read's baseline. A read
// with a zero interval only records the baseline.
func (b *Baseline) Read(total, interval vclock.Duration) float64 {
	p := WindowedPressure(b.last, total, interval)
	b.last = total
	return p
}
