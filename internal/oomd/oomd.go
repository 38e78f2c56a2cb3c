// Package oomd implements a userspace out-of-memory killer driven by PSI
// full pressure, the §3.2.4 use case the paper describes (and the
// open-source project Senpai was released under).
//
// The kernel's OOM killer triggers only when allocation physically fails;
// long before that, an application can be *functionally* out of memory —
// stalled enough that it misses its SLOs. oomd watches a domain's full
// pressure, which measures completely unproductive time, and when it stays
// above a threshold for a sustained window, kills the lowest-priority,
// largest kill candidate to restore service health.
package oomd

import (
	"sort"

	"tmo/internal/cgroup"
	"tmo/internal/psi"
	"tmo/internal/vclock"
)

// Config parameterises the killer.
type Config struct {
	// PollInterval between pressure checks.
	PollInterval vclock.Duration
	// Kind selects the indicator: Full (default production policy —
	// completely unproductive time) or Some.
	Kind psi.Kind
	// Threshold is the pressure fraction that arms the killer.
	Threshold float64
	// SustainFor is how long pressure must stay above Threshold before a
	// kill fires; transient spikes (a working-set transition, a restart)
	// must not kill anything.
	SustainFor vclock.Duration
	// Cooldown after a kill before another may fire, giving the system
	// time to recover and pressure to drain.
	Cooldown vclock.Duration
}

// DefaultConfig is a production-plausible policy: 20% full pressure over 10
// seconds kills; 30 seconds cooldown.
func DefaultConfig() Config {
	return Config{
		PollInterval: vclock.Second,
		Kind:         psi.Full,
		Threshold:    0.20,
		SustainFor:   10 * vclock.Second,
		Cooldown:     30 * vclock.Second,
	}
}

// Candidate is one killable container.
type Candidate struct {
	Group *cgroup.Group
	// Priority orders victims: lower priority dies first. Workload
	// containers get high priorities; batch and sidecar work low ones.
	Priority int
	// Kill terminates the container's workload, releasing its memory.
	Kill func(now vclock.Time)
}

// KillEvent records one kill decision.
type KillEvent struct {
	Time     vclock.Time
	Group    *cgroup.Group
	Pressure float64
}

// Controller is one oomd instance watching a pressure domain.
type Controller struct {
	cfg    Config
	domain *cgroup.Group

	candidates []Candidate

	cadence    vclock.Cadence
	pressure   psi.Baseline
	armedSince vclock.Time
	armed      bool
	lastKill   vclock.Time
	hasKilled  bool

	kills []KillEvent
}

// New returns a controller monitoring the given domain's memory pressure
// (typically the root group for whole-host protection).
func New(cfg Config, domain *cgroup.Group) *Controller {
	if cfg.PollInterval <= 0 {
		panic("oomd: poll interval must be positive")
	}
	return &Controller{cfg: cfg, domain: domain}
}

// AddCandidate registers a killable container.
func (c *Controller) AddCandidate(cand Candidate) {
	if cand.Group == nil || cand.Kill == nil {
		panic("oomd: candidate needs a group and a kill action")
	}
	c.candidates = append(c.candidates, cand)
}

// Kills returns the kill log.
func (c *Controller) Kills() []KillEvent { return c.kills }

// Tick drives the controller; call it every simulation tick.
func (c *Controller) Tick(now vclock.Time) {
	interval, ok := c.cadence.Due(now, c.cfg.PollInterval)
	if !ok {
		return
	}
	tr := c.domain.PSI()
	tr.Sync(now)
	// The cadence's prime (a zero interval) only records the baseline.
	pressure := c.pressure.Read(tr.Total(psi.Memory, c.cfg.Kind), interval)
	if interval == 0 || pressure < c.cfg.Threshold {
		c.armed = false
		return
	}
	if !c.armed {
		c.armed = true
		c.armedSince = now
		return
	}
	if now.Sub(c.armedSince) < c.cfg.SustainFor {
		return
	}
	if c.hasKilled && now.Sub(c.lastKill) < c.cfg.Cooldown {
		return
	}
	if victim, ok := c.pickVictim(); ok {
		victim.Kill(now)
		c.kills = append(c.kills, KillEvent{Time: now, Group: victim.Group, Pressure: pressure})
		c.lastKill = now
		c.hasKilled = true
		c.armed = false
	}
}

// pickVictim selects the lowest-priority candidate, breaking ties by
// largest memory usage — the policy that frees the most memory while
// hurting the least important work.
func (c *Controller) pickVictim() (Candidate, bool) {
	live := make([]Candidate, 0, len(c.candidates))
	for _, cand := range c.candidates {
		if cand.Group.MemoryCurrent() > 0 {
			live = append(live, cand)
		}
	}
	if len(live) == 0 {
		return Candidate{}, false
	}
	sort.SliceStable(live, func(i, j int) bool {
		if live[i].Priority != live[j].Priority {
			return live[i].Priority < live[j].Priority
		}
		return live[i].Group.MemoryCurrent() > live[j].Group.MemoryCurrent()
	})
	return live[0], true
}
