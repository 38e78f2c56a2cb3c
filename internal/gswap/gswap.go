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

// target is one container and its promotion-rate reading.
type target struct {
	g *cgroup.Group
	// swapIns is the container's swap-in count at the last reading, and
	// rate the promotions per second measured there.
	swapIns int64
	rate    float64
}

// Controller drives one or more containers by promotion-rate feedback.
type Controller struct {
	cfg Config

	targets []*target
	cadence vclock.Cadence
	runs    int64
}

// New returns a g-swap controller.
func New(cfg Config) *Controller {
	if cfg.Interval <= 0 {
		panic("gswap: interval must be positive")
	}
	return &Controller{cfg: cfg}
}

// AddTarget registers a container.
func (c *Controller) AddTarget(g *cgroup.Group) { c.targets = append(c.targets, &target{g: g}) }

// Tick drives the controller; call it every simulation tick.
func (c *Controller) Tick(now vclock.Time) {
	interval, ok := c.cadence.Due(now, c.cfg.Interval)
	if !ok {
		return
	}
	if interval == 0 { // the prime: record baselines, do not act
		for _, t := range c.targets {
			t.swapIns = t.g.MM().Stat().SwapIns
		}
		return
	}
	c.runs++
	for _, t := range c.targets {
		swapIns := t.g.MM().Stat().SwapIns
		t.rate = float64(swapIns-t.swapIns) / interval.Seconds()
		t.swapIns = swapIns

		// Below the profiled ceiling: offload another step. At or above:
		// hold off so the rate falls back under the target.
		if t.rate < c.cfg.TargetPromotionsPerSec {
			t.g.MemoryReclaim(now, int64(float64(t.g.MemoryCurrent())*c.cfg.StepFrac))
		}
	}
}
