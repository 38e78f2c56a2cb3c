// Package gswap implements the promotion-rate-target controller the paper
// compares against (§1, §4.3): Google's zswap-based far-memory system
// [Lagar-Cavilla et al., ASPLOS'19], called g-swap in the paper.
//
// g-swap offloads cold memory into a compressed pool while keeping the
// observed promotion rate (swap-ins per second) below a per-application
// target derived from offline profiling. The paper's critique, reproduced
// by the Fig. 12 experiment, is that a static promotion-rate target neither
// reflects the backend's speed nor the application's sensitivity: on a fast
// device a *higher* promotion rate can coexist with *better* application
// performance, so the static target leaves savings (or performance) on the
// table.
package gswap

import (
	"tmo/internal/cgroup"
	"tmo/internal/vclock"
)

// Config parameterises the baseline controller.
type Config struct {
	// Interval between control actions.
	Interval vclock.Duration
	// TargetPromotionsPerSec is the offline-profiled promotion-rate
	// ceiling for the workload.
	TargetPromotionsPerSec float64
	// StepFrac is the fraction of the container's memory reclaimed per
	// interval while the promotion rate is below target.
	StepFrac float64
}

// DefaultConfig mirrors the published design at a cadence comparable to
// Senpai's.
func DefaultConfig(target float64) Config {
	return Config{
		Interval:               6 * vclock.Second,
		TargetPromotionsPerSec: target,
		StepFrac:               0.005,
	}
}

// Controller drives one or more containers by promotion-rate feedback.
type Controller struct {
	cfg Config

	targets     []*cgroup.Group
	lastSwapIns map[*cgroup.Group]int64
	lastRate    map[*cgroup.Group]float64

	lastRun vclock.Time
	started bool
	runs    int64
}

// New returns a g-swap controller.
func New(cfg Config) *Controller {
	if cfg.Interval <= 0 {
		panic("gswap: interval must be positive")
	}
	return &Controller{
		cfg:         cfg,
		lastSwapIns: make(map[*cgroup.Group]int64),
		lastRate:    make(map[*cgroup.Group]float64),
	}
}

// AddTarget registers a container.
func (c *Controller) AddTarget(g *cgroup.Group) { c.targets = append(c.targets, g) }

// Tick drives the controller; call it every simulation tick.
func (c *Controller) Tick(now vclock.Time) {
	if !c.started {
		c.started = true
		c.lastRun = now
		for _, g := range c.targets {
			c.lastSwapIns[g] = g.MM().Stat().SwapIns
		}
		return
	}
	interval := now.Sub(c.lastRun)
	if interval < c.cfg.Interval {
		return
	}
	c.lastRun = now
	c.runs++

	for _, g := range c.targets {
		swapIns := g.MM().Stat().SwapIns
		rate := float64(swapIns-c.lastSwapIns[g]) / interval.Seconds()
		c.lastSwapIns[g] = swapIns
		c.lastRate[g] = rate

		// Below the profiled ceiling: offload another step. At or above:
		// hold off so the rate falls back under the target.
		if rate < c.cfg.TargetPromotionsPerSec {
			g.MemoryReclaim(now, int64(float64(g.MemoryCurrent())*c.cfg.StepFrac))
		}
	}
}
