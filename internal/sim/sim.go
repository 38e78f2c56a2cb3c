// Package sim is the discrete-time server simulator every experiment runs
// on. It advances a virtual clock in fixed ticks; within each tick the
// registered applications serve requests against the memory-management
// substrate, their fault stalls are merged in global time order and fed to
// the cgroup PSI trackers, and then the tick hooks run in registration
// order. The userspace agents (Senpai, the placement loop, oomd, the g-swap
// baseline) register their Tick as a hook, each gating on its own
// vclock.Cadence; experiment harnesses register theirs after to record
// series.
package sim

import (
	"fmt"
	"slices"
	"time"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/metrics"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// Config parameterises a simulated server.
type Config struct {
	// CapacityBytes is host DRAM.
	CapacityBytes int64
	// TickLen defaults to 100ms.
	TickLen vclock.Duration
	// Device is the host SSD (filesystem, and swap if SSD-backed).
	Device *backend.SSDDevice
	// Swap is the swap backend; nil disables swap (file-only mode).
	Swap *backend.TierChain
	// Far is the byte-addressable far-memory node; nil disables the
	// placement tier.
	Far *backend.CXLNode
	// Policy selects the kernel reclaim algorithm.
	Policy mm.ReclaimPolicy
	// SwapReadahead is the kernel swap-readahead depth (pages per fault);
	// zero disables.
	SwapReadahead int
}

// Server is one simulated host.
type Server struct {
	cfg   Config
	clock *vclock.Clock
	mgr   *mm.Manager
	h     *cgroup.Hierarchy
	fs    *backend.Filesystem

	apps         []*workload.App
	observers    []func(now vclock.Time)
	preObservers []func(now vclock.Time)

	// lastResults[i] is apps[i]'s most recent tick outcome.
	lastResults []workload.TickResult
	lastAvgTime vclock.Time
	ticks       int64
	// stallIntegrations counts the task stall intervals folded into the
	// PSI trackers.
	stallIntegrations int64

	// events is the per-tick PSI transition buffer, reused across ticks so
	// the steady-state tick loop performs no event allocations.
	events []stallEvent

	// Each tick's wall time in real µs and the memory and IO stall
	// intervals' durations in µs; EnableTelemetry registers them.
	tickWall, memStalls, ioStalls metrics.Histogram
}

// EnableTelemetry registers the simulator's instruments with reg: tick
// counts, per-tick wall-clock timing (the simulator's own overhead, in real
// microseconds), and the PSI layer's stall-duration histograms fed from the
// per-task stall intervals as they are integrated into the trackers.
func (s *Server) EnableTelemetry(reg *telemetry.Registry) {
	reg.CounterFunc("sim.ticks", func() int64 { return s.ticks })
	reg.Histogram("sim.tick_wall_us", &s.tickWall)
	reg.Histogram("psi.stall_duration_us", &s.memStalls, telemetry.Label{Key: "resource", Value: "memory"})
	reg.Histogram("psi.stall_duration_us", &s.ioStalls, telemetry.Label{Key: "resource", Value: "io"})
	reg.CounterFunc("psi.stall_integrations", func() int64 { return s.stallIntegrations })
}

// MemStalls returns the histogram of every memory stall interval's
// duration in µs.
func (s *Server) MemStalls() *metrics.Histogram { return &s.memStalls }

// NewServer builds a server from cfg.
func NewServer(cfg Config) *Server {
	if cfg.TickLen <= 0 {
		cfg.TickLen = 100 * vclock.Millisecond
	}
	if cfg.Device == nil {
		panic("sim: host SSD device required")
	}
	fs := backend.NewFilesystem(cfg.Device)
	mgr := mm.NewManager(mm.Config{
		CapacityBytes: cfg.CapacityBytes,
		Swap:          cfg.Swap,
		Far:           cfg.Far,
		FS:            fs,
		Policy:        cfg.Policy,
		SwapReadahead: cfg.SwapReadahead,
	})
	clock := vclock.NewClock()
	return &Server{
		cfg:   cfg,
		clock: clock,
		mgr:   mgr,
		h:     cgroup.NewHierarchy(mgr, clock.Now()),
		fs:    fs,
	}
}

// Now returns the current virtual time.
func (s *Server) Now() vclock.Time { return s.clock.Now() }

// Manager returns the memory manager.
func (s *Server) Manager() *mm.Manager { return s.mgr }

// Hierarchy returns the cgroup tree.
func (s *Server) Hierarchy() *cgroup.Hierarchy { return s.h }

// Filesystem returns the host filesystem backend.
func (s *Server) Filesystem() *backend.Filesystem { return s.fs }

// Swap returns the swap backend, nil in file-only mode.
func (s *Server) Swap() *backend.TierChain { return s.cfg.Swap }

// Apps returns the registered applications.
func (s *Server) Apps() []*workload.App { return s.apps }

// AddApp creates a cgroup of the given kind under parent (root if nil),
// instantiates the profile in it, registers its worker tasks with PSI, and
// populates its initial resident set.
func (s *Server) AddApp(p workload.Profile, kind cgroup.Kind, parent *cgroup.Group, seed uint64) *workload.App {
	if err := p.Validate(); err != nil {
		panic(fmt.Sprintf("sim: %v", err))
	}
	g := s.h.NewGroup(parent, p.Name, kind, s.clock.Now())
	app := workload.NewApp(p, g, s.mgr, seed)
	for i := 0; i < p.Workers; i++ {
		g.TaskStart(s.clock.Now())
	}
	app.Start(s.clock.Now())
	s.apps = append(s.apps, app)
	s.lastResults = append(s.lastResults, workload.TickResult{})
	return app
}

// OnTick registers a hook called after each completed tick, in
// registration order: a userspace agent's Tick, or an experiment harness
// recording its panel series.
func (s *Server) OnTick(fn func(now vclock.Time)) { s.observers = append(s.observers, fn) }

// OnTickStart registers an observer called at the start of each tick,
// before any request is served — the injection point for perturbations that
// must take effect ahead of the tick's workload activity (the chaos
// engine's hook).
func (s *Server) OnTickStart(fn func(now vclock.Time)) {
	s.preObservers = append(s.preObservers, fn)
}

// LastResult returns the given app's most recent tick outcome; its Stalls
// are valid until the next tick.
func (s *Server) LastResult(a *workload.App) workload.TickResult {
	if i := slices.Index(s.apps, a); i >= 0 {
		return s.lastResults[i]
	}
	return workload.TickResult{}
}

// stallEvent is one PSI state transition derived from an app stall interval.
type stallEvent struct {
	at    vclock.Time
	g     *cgroup.Group
	mem   bool
	io    bool
	start bool
}

// Run advances the simulation by d (rounded up to whole ticks).
func (s *Server) Run(d vclock.Duration) {
	end := s.clock.Now().Add(d)
	for s.clock.Now() < end {
		s.step()
	}
}

// step executes one tick.
func (s *Server) step() {
	wallStart := time.Now()
	now := s.clock.Now()
	tick := s.cfg.TickLen

	for _, fn := range s.preObservers {
		fn(now)
	}

	// Issue asynchronous swap-out writeback due by now, so queued writes
	// land on the device meters at their scheduled drain times even when no
	// backend operation happens to trigger a lazy drain.
	if s.cfg.Swap != nil {
		s.cfg.Swap.DrainWriteback(now)
	}

	// Self-throttling apps read host headroom at tick start.
	host := s.mgr.HostStat()
	freeFrac := float64(host.FreeBytes) / float64(host.CapacityBytes)
	if freeFrac < 0 {
		freeFrac = 0
	}
	for _, a := range s.apps {
		if a.Profile.SelfThrottle {
			a.SetAdmitted(throttleFactor(a.Profile, freeFrac))
		}
	}

	// Serve the tick and gather stall intervals from all apps.
	events := s.events[:0]
	for i, a := range s.apps {
		res := a.Tick(now, tick)
		s.lastResults[i] = res
		for _, iv := range res.Stalls {
			events = append(events, stallEvent{at: iv.Start, g: a.Group, mem: iv.Mem, io: iv.IO, start: true})
			events = append(events, stallEvent{at: iv.End, g: a.Group, mem: iv.Mem, io: iv.IO, start: false})
			s.stallIntegrations++
			d := int64(iv.End.Sub(iv.Start))
			if iv.Mem {
				s.memStalls.Record(d)
			}
			if iv.IO {
				s.ioStalls.Record(d)
			}
		}
	}

	// Apply PSI transitions in global time order; at equal instants, stall
	// ends are applied before starts so per-group stall counts never
	// transiently exceed task counts.
	slices.SortStableFunc(events, func(a, b stallEvent) int {
		if a.at != b.at {
			if a.at < b.at {
				return -1
			}
			return 1
		}
		switch {
		case a.start == b.start:
			return 0
		case !a.start:
			return -1
		default:
			return 1
		}
	})
	s.events = events
	for _, e := range events {
		if e.start {
			if e.mem {
				e.g.StallStart(e.at, psi.Memory)
			}
			if e.io {
				e.g.StallStart(e.at, psi.IO)
			}
		} else {
			if e.mem {
				e.g.StallStop(e.at, psi.Memory)
			}
			if e.io {
				e.g.StallStop(e.at, psi.IO)
			}
		}
	}

	next := now.Add(tick)
	s.clock.AdvanceTo(next)

	// Kernel PSI averages update every 2 seconds.
	if next.Sub(s.lastAvgTime) >= psi.AvgUpdateInterval {
		s.h.Root().UpdateAverages(next)
		s.lastAvgTime = next
	}

	for _, fn := range s.observers {
		fn(next)
	}
	s.ticks++
	s.tickWall.Record(time.Since(wallStart).Microseconds())
}

// throttleFactor maps host free-memory fraction to the admitted-load factor
// for a self-throttling profile.
func throttleFactor(p workload.Profile, freeFrac float64) float64 {
	switch {
	case freeFrac >= p.ThrottleHighFrac:
		return 1
	case freeFrac <= p.ThrottleLowFrac:
		return p.ThrottleFloor
	default:
		span := p.ThrottleHighFrac - p.ThrottleLowFrac
		pos := (freeFrac - p.ThrottleLowFrac) / span
		return p.ThrottleFloor + pos*(1-p.ThrottleFloor)
	}
}
