// Package senpai implements TMO's userspace memory-offloading controller
// (§3.3 of the paper).
//
// Senpai continuously applies mild memory pressure: every few seconds it
// reads each target container's PSI totals, differences them over its own
// window (like the production daemon does with the pressure-file total
// field), and asks the kernel to proactively reclaim
//
//	reclaim_mem = current_mem × reclaim_ratio × max(0, 1 − PSIsome/PSIthreshold)
//
// via the stateless memory.reclaim control file. As pressure approaches the
// threshold the requests shrink to zero, settling each workload at the
// minimum resident set that keeps its stall time subliminal — without any
// offline profiling and regardless of which offload backend is behind swap.
//
// Beyond the paper's formula the controller carries the production
// safeguards §3.3 describes: it also watches IO pressure (offloading can
// hurt indirectly through the storage device), modulates reclaim when the
// SSD write rate exceeds the endurance budget (Fig. 14), stops probing when
// swap space is exhausted, and optionally drives the legacy stateful
// memory.max interface instead of memory.reclaim (the early Senpai design
// the paper moved away from).
package senpai

import (
	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/metrics"
	"tmo/internal/psi"
	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// Config holds the controller parameters. The zero value is not valid; use
// ConfigA (the paper's production configuration) or derive from it.
type Config struct {
	// Interval between control actions; production uses six seconds,
	// chosen to let the delayed cost of reclaim (refaults) surface before
	// the next decision.
	Interval vclock.Duration
	// ReclaimRatio is the fraction of the container's memory requested
	// per interval at zero pressure; production uses 0.0005.
	ReclaimRatio float64
	// MemPressureThreshold is the target memory some-pressure fraction;
	// production uses 0.001 (0.1%).
	MemPressureThreshold float64
	// IOPressureThreshold is the analogous bound on IO some-pressure;
	// zero disables the IO term.
	IOPressureThreshold float64
	// MaxProbeFrac caps a single interval's reclaim at this fraction of
	// the container's memory; production uses 0.01 (1%).
	MaxProbeFrac float64
	// WriteBudgetBytesPerSec caps the swap device's sustained write rate;
	// reclaim scales down proportionally above it. Zero disables
	// regulation. The fleet-safe production value is 1 MB/s (§4.5).
	WriteBudgetBytesPerSec float64
	// LimitMode drives the stateful memory.max knob instead of
	// memory.reclaim, reproducing the early Senpai design whose risk of
	// blocking expanding workloads motivated the memory.reclaim kernel
	// addition (§3.3).
	LimitMode bool
}

// ConfigA returns the paper's production configuration ("Config A" in
// §4.4): mild pressure thresholds that avoid end-to-end SLA regressions.
func ConfigA() Config {
	return Config{
		Interval:             6 * vclock.Second,
		ReclaimRatio:         0.0005,
		MemPressureThreshold: 0.001,
		// The IO bound sits well above normal operational IO (streaming
		// reads, cache fills) and trips only on reclaim-induced IO storms.
		IOPressureThreshold: 0.03,
		MaxProbeFrac:        0.01,
	}
}

// ConfigB returns the aggressive configuration of §4.4's tuning experiment:
// it tolerates roughly ten times more pressure and probes harder, buying
// more savings at the cost of an RPS regression on Web.
func ConfigB() Config {
	c := ConfigA()
	c.ReclaimRatio *= 6
	c.MemPressureThreshold *= 10
	c.IOPressureThreshold *= 10
	return c
}

// TaxOverride derives the per-SLO override used for the memory-tax sidecars
// from a host's base config, keeping any experiment-level speedups: §2.3
// notes their performance SLAs are more relaxed than workload containers',
// which made them TMO's first production target. Over ConfigA the override
// probes harder and tolerates more pressure, but far less than the
// Web-regressing ConfigB.
func TaxOverride(base Config) Config {
	base.ReclaimRatio *= 4
	base.MemPressureThreshold *= 5
	base.IOPressureThreshold *= 2
	return base
}

// Action records what the controller did to one container at one interval;
// experiments use it for the Fig. 8 panels.
type Action struct {
	Time        vclock.Time
	MemPressure float64
	IOPressure  float64
	Requested   int64
	Reclaimed   int64
	// WriteLimited reports that endurance regulation scaled this request.
	WriteLimited bool
}

// target is one container under the controller and everything the
// controller keeps about it.
type target struct {
	g *cgroup.Group
	// cfg, when set, overrides the controller configuration: §2.3 notes
	// the memory taxes have more relaxed SLAs than workload containers,
	// and §3.3 plans distinct Senpai configurations per SLO class.
	// Overrides share the controller's Interval.
	cfg     *Config
	mem, io psi.Baseline
	last    Action
	ws      WorkingSetProfile
	tune    tuneState
}

// Controller is one Senpai instance driving a set of containers.
type Controller struct {
	cfg  Config
	swap *backend.TierChain // may be nil in file-only mode

	targets []*target
	cadence vclock.Cadence

	// writeScale is the endurance regulator's persistent gain in (0, 1]:
	// multiplicative decrease while the device write rate exceeds the
	// budget, slow recovery below it. A stateless one-shot scale would
	// oscillate between sprinting and stalling around the budget.
	writeScale float64

	totalRequested int64
	totalReclaimed int64
	runs           int64
	// Per-target decisions by kind: probes that reclaimed, backoffs (no
	// request), and write-regulated probes.
	reclaims, backoffs, writeRegulated int64

	// autoTune switches on online parameter tuning (§3.3 future work); see
	// autotune.go.
	autoTune bool

	trace *trace.Recorder

	// probeHist counts the bytes of every probe that requested reclaim;
	// EnableTelemetry registers it.
	probeHist metrics.Histogram
}

// SetTrace attaches the host's decision recorder: each control interval
// becomes a "senpai tick" span containing one probe span per target cgroup,
// annotated with the pressures read and the bytes requested and reclaimed,
// so a backoff (nothing requested) or a write-regulated probe reads off its
// args.
func (c *Controller) SetTrace(r *trace.Recorder) { c.trace = r }

// EnableTelemetry registers the controller's decision counters with reg.
func (c *Controller) EnableTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("senpai.runs", func() int64 { return c.runs })
	reg.CounterFunc("senpai.reclaim_decisions", func() int64 { return c.reclaims })
	reg.CounterFunc("senpai.backoff_decisions", func() int64 { return c.backoffs })
	reg.CounterFunc("senpai.write_regulated_decisions", func() int64 { return c.writeRegulated })
	reg.CounterFunc("senpai.requested_bytes", func() int64 { return c.totalRequested })
	reg.CounterFunc("senpai.reclaimed_bytes", func() int64 { return c.totalReclaimed })
	reg.Histogram("senpai.probe_bytes", &c.probeHist)
}

// New returns a controller with the given configuration. swap may be nil
// when the host runs file-only mode; it is used for write-rate regulation.
func New(cfg Config, swap *backend.TierChain) *Controller {
	if cfg.Interval <= 0 {
		panic("senpai: interval must be positive")
	}
	return &Controller{cfg: cfg, swap: swap, writeScale: 1}
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// SetConfig replaces the controller's global configuration at runtime — the
// way the fleet control plane pushes a policy's configuration to a running
// host (and pushes the baseline back on a drop or rollback). While a host is
// owned by a rollout controller, pushed policies win over the boot-time
// config from fleet.Spec.Senpai / core.Options.Senpai. Per-target overrides
// (AddTargetWithConfig) are preserved; PSI baselines carry over so the next
// interval differences against the same totals.
func (c *Controller) SetConfig(cfg Config) {
	if cfg.Interval <= 0 {
		panic("senpai: interval must be positive")
	}
	c.cfg = cfg
}

// SetWriteBudget changes the endurance write budget at runtime; the Fig. 14
// experiment enables regulation mid-run this way. Zero disables regulation.
func (c *Controller) SetWriteBudget(bytesPerSec float64) {
	c.cfg.WriteBudgetBytesPerSec = bytesPerSec
}

// AddTarget registers a container for offloading under the controller's
// global configuration.
func (c *Controller) AddTarget(g *cgroup.Group) {
	c.targets = append(c.targets, &target{g: g, tune: tuneState{mult: 1}})
}

// AddTargetWithConfig registers a container with its own configuration —
// e.g. a relaxed-SLA tax sidecar that tolerates more pressure. The
// override's Interval is ignored; the controller runs all targets on one
// cadence.
func (c *Controller) AddTargetWithConfig(g *cgroup.Group, cfg Config) {
	c.AddTarget(g)
	c.targets[len(c.targets)-1].cfg = &cfg
}

// config resolves the configuration for one container.
func (c *Controller) config(t *target) Config {
	if t.cfg != nil {
		return *t.cfg
	}
	return c.cfg
}

// find returns g's record, or an empty one when g is not a target.
func (c *Controller) find(g *cgroup.Group) *target {
	for _, t := range c.targets {
		if t.g == g {
			return t
		}
	}
	return &target{tune: tuneState{mult: 1}}
}

// LastAction returns the most recent action applied to g.
func (c *Controller) LastAction(g *cgroup.Group) Action { return c.find(g).last }

// Runs returns how many control intervals have executed.
func (c *Controller) Runs() int64 { return c.runs }

// Tick drives the controller; it acts only when a full interval has elapsed
// since the last action, so it can be called every simulation tick.
func (c *Controller) Tick(now vclock.Time) {
	interval, ok := c.cadence.Due(now, c.cfg.Interval)
	if !ok {
		return
	}
	if interval == 0 { // the prime: record baselines, do not act
		for _, t := range c.targets {
			t.pressures(now, 0)
		}
		return
	}
	c.runs++

	// Update the endurance regulator once per interval from the device's
	// recent write rate (§4.5).
	writeLimited := false
	if c.cfg.WriteBudgetBytesPerSec > 0 && c.swap != nil {
		rate := c.swap.WriteRate(now)
		if rate > c.cfg.WriteBudgetBytesPerSec {
			c.writeScale *= c.cfg.WriteBudgetBytesPerSec / rate
			writeLimited = true
		} else {
			c.writeScale *= 1.25
		}
		if c.writeScale > 1 {
			c.writeScale = 1
		}
		if c.writeScale < 0.005 {
			c.writeScale = 0.005
		}
		writeLimited = writeLimited || c.writeScale < 1
	} else {
		c.writeScale = 1
	}

	// Span layout: the whole interval is one tick span; each target's probe
	// is a child laid out sequentially in virtual time, advanced by the
	// synchronous cost its reclaim call reported, so siblings never overlap
	// and Chrome-trace viewers reconstruct the nesting by time containment.
	var tickSpan *trace.Span
	cursor := now
	if c.trace != nil {
		tickSpan = c.trace.Begin(now, trace.KindSenpaiTick, "senpai tick")
		tickSpan.Annotate("targets", len(c.targets))
		tickSpan.Annotate("write_scale", c.writeScale)
	}

	for _, t := range c.targets {
		g, cfg := t.g, c.config(t)
		memP, ioP := t.pressures(now, interval)
		act := Action{Time: now, MemPressure: memP, IOPressure: ioP}

		current := g.MemoryCurrent()
		t.ws.observe(cfg, now, current, memP)
		cfg.ReclaimRatio = c.tunedRatio(t, cfg, memP, ioP)
		reclaim := ReclaimAmount(cfg, current, memP, ioP)

		// Endurance regulation (§4.5): apply the regulator's gain.
		if reclaim > 0 && c.writeScale < 1 {
			reclaim = int64(float64(reclaim) * c.writeScale)
			act.WriteLimited = writeLimited
		}

		var probe *trace.Span
		if c.trace != nil {
			probe = c.trace.Begin(cursor, trace.KindSenpaiReclaim, "probe "+g.Name())
			probe.Annotate("mem_pressure", memP)
			probe.Annotate("io_pressure", ioP)
		}

		act.Requested = reclaim
		var reclaimStall vclock.Duration
		if reclaim > 0 {
			if cfg.LimitMode {
				res := g.SetMemoryMax(now, current-reclaim)
				act.Reclaimed = res.ReclaimedBytes
				reclaimStall = res.StallTime
			} else {
				res := g.MemoryReclaim(now, reclaim)
				act.Reclaimed = res.ReclaimedBytes
				reclaimStall = res.StallTime
			}
		} else if cfg.LimitMode {
			// Pressure at or above threshold: relieve the limit so an
			// expanding workload is not blocked.
			g.SetMemoryMax(now, current+int64(float64(current)*cfg.MaxProbeFrac))
		}
		c.totalRequested += act.Requested
		c.totalReclaimed += act.Reclaimed
		t.last = act

		switch {
		case act.WriteLimited:
			c.writeRegulated++
		case act.Requested == 0:
			c.backoffs++
		default:
			c.reclaims++
		}
		if act.Requested > 0 {
			c.probeHist.Record(act.Requested)
		}
		if probe != nil {
			probe.Annotate("requested_bytes", act.Requested)
			probe.Annotate("reclaimed_bytes", act.Reclaimed)
			if act.WriteLimited {
				probe.Annotate("write_limited", true)
			}
			// A probe occupies at least the nominal cost of its PSI reads
			// so zero-reclaim backoffs remain visible on the timeline.
			dur := reclaimStall
			if dur < vclock.Microsecond {
				dur = vclock.Microsecond
			}
			cursor = cursor.Add(dur)
			probe.End(cursor)
		}
	}

	if tickSpan != nil {
		tickSpan.End(cursor)
	}
}

// pressures reads the container's memory and IO some-pressure over the
// interval since the previous read.
func (t *target) pressures(now vclock.Time, interval vclock.Duration) (mem, io float64) {
	tr := t.g.PSI()
	tr.Sync(now)
	return t.mem.Read(tr.Total(psi.Memory, psi.Some), interval), t.io.Read(tr.Total(psi.IO, psi.Some), interval)
}

// ReclaimAmount is the paper's control law (§3.3) as a pure function:
//
//	reclaim = current × ratio × max(0, 1 − max(memP/memThr, ioP/ioThr))
//
// capped at MaxProbeFrac of current. It is exported so its properties
// (monotonicity in pressure, the hard zero at threshold, the probe cap) can
// be verified directly.
func ReclaimAmount(cfg Config, currentBytes int64, memP, ioP float64) int64 {
	ratio := memP / cfg.MemPressureThreshold
	if cfg.IOPressureThreshold > 0 {
		if r := ioP / cfg.IOPressureThreshold; r > ratio {
			ratio = r
		}
	}
	reclaim := int64(float64(currentBytes) * cfg.ReclaimRatio * maxf(0, 1-ratio))
	if maxStep := int64(float64(currentBytes) * cfg.MaxProbeFrac); reclaim > maxStep {
		reclaim = maxStep
	}
	return reclaim
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
