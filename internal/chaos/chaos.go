// Package chaos is a deterministic fault-injection engine for simulated TMO
// hosts. TMO's claim is that PSI feedback keeps Senpai safe on a messy
// fleet — slow and wearing SSDs (Figs. 5, 12, 14), drifting
// compressibility, load spikes, noisy neighbours — but steady-state
// experiments never stress that claim. The chaos engine perturbs a running
// system on a virtual-time schedule so resilience experiments can measure
// how the control loop absorbs each fault class and recovers.
//
// Everything is reproducible: schedules are evaluated against virtual time
// only, and any randomness (recurrence gaps) flows from per-event PCG
// streams derived from the engine seed. The same seed and script produce a
// bit-identical run.
package chaos

import (
	"fmt"
	"math/rand/v2"

	"tmo/internal/backend"
	"tmo/internal/dist"
	"tmo/internal/mm"
	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// Fault is one injectable perturbation. The engine drives it with an
// intensity level in [0, 1]: 0 is nominal, 1 is the event's configured full
// strength, and intermediate values occur while a ramp schedule rises. Set
// is only called when the level changes. Script clauses build theirs from
// the fault catalog (faultClasses); Go callers schedule their own.
type Fault struct {
	// Kind names the fault class for telemetry labels and trace events.
	Kind string
	// Set applies the given intensity at virtual instant now.
	Set func(now vclock.Time, level float64)
}

// Schedule shapes an event's intensity over virtual time. The zero value
// (plus an At) is a one-shot: the event switches to full strength at At and
// stays there. Dur bounds the active window (a step), Ramp makes the rise
// linear instead of instant, and Every re-arms the event after seeded
// exponentially distributed gaps (random recurrence).
type Schedule struct {
	// At is the first activation instant.
	At vclock.Time
	// Ramp is the rise time over which the level climbs linearly from 0
	// to 1; zero switches instantly.
	Ramp vclock.Duration
	// Dur is how long the event holds full strength before restoring;
	// zero holds forever.
	Dur vclock.Duration
	// Every enables recurrence: after each active window, the event
	// re-arms following an exponentially distributed gap with this mean,
	// drawn from the event's own seeded stream. Zero disables recurrence.
	Every vclock.Duration
}

// defaultRecurWindow bounds a recurring event's active window when the
// schedule gives none; without it a recurrence would never end.
const defaultRecurWindow = 30 * vclock.Second

// event is one scheduled fault with its evaluation state.
type event struct {
	name  string
	fault Fault
	sched Schedule
	rng   *rand.Rand

	armAt vclock.Time // current activation instant; advances on recurrence
	level float64     // last applied intensity
	spent bool        // non-recurring window completed

	telInject, telRestore *telemetry.Counter
}

// levelAt evaluates the event's intensity at now, advancing recurrence
// state as active windows complete.
func (ev *event) levelAt(now vclock.Time) float64 {
	for {
		if ev.spent || now < ev.armAt {
			return 0
		}
		t := now.Sub(ev.armAt)
		if ev.sched.Ramp > 0 && t < ev.sched.Ramp {
			return float64(t) / float64(ev.sched.Ramp)
		}
		if ev.sched.Dur <= 0 {
			return 1 // permanent once risen
		}
		if t < ev.sched.Ramp+ev.sched.Dur {
			return 1
		}
		// Active window over: re-arm or retire, then re-evaluate (the
		// next window could already have begun after a long tick).
		if ev.sched.Every <= 0 {
			ev.spent = true
			return 0
		}
		gap := vclock.Duration(ev.rng.ExpFloat64() * float64(ev.sched.Every))
		ev.armAt = ev.armAt.Add(ev.sched.Ramp + ev.sched.Dur + gap)
	}
}

// Host is everything the engine may perturb, plus the sinks its actions are
// reported to. Nil fields disable the corresponding fault classes/sinks.
type Host struct {
	// Device is the host SSD (latency, wear, stall faults).
	Device *backend.SSDDevice
	// Manager is the kernel memory manager (capacity-loss faults).
	Manager *mm.Manager
	// Swap is the swap tier chain (swap-fill faults, sized by its
	// capacity); nil disables swap-fill.
	Swap *backend.TierChain
	// CXL is the byte-addressable far-memory node (link-degradation and
	// link-stall faults).
	CXL *backend.CXLNode
	// Apps enumerates the host's workloads at injection time (load,
	// compressibility, bloat faults).
	Apps func() []*workload.App
	// Seed derives every event's recurrence stream.
	Seed uint64
	// Telemetry receives injection counters and Trace one instant per
	// activation edge.
	Telemetry *telemetry.Registry
	Trace     *trace.Recorder
}

// Engine schedules faults against one host. Drive it by registering Tick as
// a simulator tick-start hook (core.System.Chaos does this).
type Engine struct {
	host   Host
	events []*event

	telApplies *telemetry.Counter
}

// NewEngine returns an engine over h with no events scheduled.
func NewEngine(h Host) *Engine {
	e := &Engine{host: h}
	if h.Telemetry != nil {
		e.telApplies = h.Telemetry.Counter("chaos.applies")
		h.Telemetry.GaugeFunc("chaos.active_faults", func() float64 {
			n := 0
			for _, ev := range e.events {
				if ev.level > 0 {
					n++
				}
			}
			return float64(n)
		})
	}
	return e
}

// Add schedules fault f under s. name labels the event in telemetry and
// traces; it defaults to the fault's kind.
func (e *Engine) Add(name string, f Fault, s Schedule) {
	if name == "" {
		name = f.Kind
	}
	if s.Every > 0 && s.Dur <= 0 {
		s.Dur = defaultRecurWindow
	}
	ev := &event{
		name:  name,
		fault: f,
		sched: s,
		armAt: s.At,
		rng:   dist.NewRand(e.host.Seed + uint64(len(e.events))*0x9e3779b97f4a7c15),
	}
	if e.host.Telemetry != nil {
		lbl := telemetry.Label{Key: "fault", Value: f.Kind}
		ev.telInject = e.host.Telemetry.Counter("chaos.injections", lbl)
		ev.telRestore = e.host.Telemetry.Counter("chaos.restores", lbl)
	}
	e.events = append(e.events, ev)
}

// Tick evaluates every schedule at now and applies intensity changes.
// Register it with sim.Server.OnTickStart so perturbations land before the
// tick's workload activity.
func (e *Engine) Tick(now vclock.Time) {
	for _, ev := range e.events {
		lvl := ev.levelAt(now)
		if lvl == ev.level {
			continue
		}
		wasActive := ev.level > 0
		ev.level = lvl
		ev.fault.Set(now, lvl)
		e.telApplies.Inc()
		switch {
		case lvl > 0 && !wasActive:
			e.note(now, trace.KindChaosInject, ev, lvl)
			ev.telInject.Inc()
		case lvl == 0 && wasActive:
			e.note(now, trace.KindChaosRestore, ev, lvl)
			ev.telRestore.Inc()
		}
	}
}

// note records an activation edge.
func (e *Engine) note(now vclock.Time, kind trace.Kind, ev *event, lvl float64) {
	if e.host.Trace != nil {
		e.host.Trace.Instant(now, kind, ev.name, "level", lvl)
	}
}

// appsNamed resolves the apps a workload-scoped fault targets: all apps for
// an empty name, else those whose profile name matches.
func (e *Engine) appsNamed(name string) []*workload.App {
	if e.host.Apps == nil {
		return nil
	}
	apps := e.host.Apps()
	if name == "" {
		return apps
	}
	var out []*workload.App
	for _, a := range apps {
		if a.Profile.Name == name {
			out = append(out, a)
		}
	}
	return out
}

// String summarises the engine's schedule for debugging.
func (e *Engine) String() string {
	s := ""
	for _, ev := range e.events {
		s += fmt.Sprintf("t=%s %s ramp=%s dur=%s every=%s\n",
			ev.sched.At, ev.name, ev.sched.Ramp, ev.sched.Dur, ev.sched.Every)
	}
	return s
}
