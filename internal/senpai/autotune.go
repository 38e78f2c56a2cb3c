package senpai

import (
	"tmo/internal/cgroup"
)

// §3.3 closes with: "We leave it as future work to perform automated or
// online tuning of these parameters to maximize savings." This file
// implements that tuner.
//
// The control law's reclaim ratio is a fixed, globally conservative value.
// When a workload sits far below its pressure threshold for a long time,
// the fixed ratio is leaving savings on the table (convergence takes hours);
// when pressure breaches, the fixed ratio keeps probing at full strength.
// The tuner adapts a per-container multiplier on the ratio with the classic
// AIMD shape: multiplicative increase while the container stays calm,
// multiplicative cut on a pressure breach. AIMD keeps the aggressive regime
// self-correcting — one breach undoes many raises.

// The tuner's AIMD parameters.
const (
	// minMult and maxMult bound the ratio multiplier.
	minMult, maxMult float64 = 0.25, 16
	// raiseFactor is applied after raiseAfter consecutive calm intervals
	// (pressure under half the threshold).
	raiseFactor float64 = 1.25
	raiseAfter  int     = 3
	// cutFactor is applied when pressure reaches the threshold.
	cutFactor float64 = 0.5
)

// tuneState tracks one container's tuner.
type tuneState struct {
	mult float64
	calm int
}

// EnableAutoTune switches the controller's online parameter tuning on.
func (c *Controller) EnableAutoTune() { c.autoTune = true }

// TuneMultiplier reports the current ratio multiplier for g (1 when the
// tuner is off or has not acted).
func (c *Controller) TuneMultiplier(g *cgroup.Group) float64 { return c.find(g).tune.mult }

// tunedRatio applies the AIMD update for one interval and returns the
// effective reclaim ratio for t.
func (c *Controller) tunedRatio(t *target, cfg Config, memP, ioP float64) float64 {
	if !c.autoTune {
		return cfg.ReclaimRatio
	}
	st := &t.tune
	breach := memP >= cfg.MemPressureThreshold ||
		(cfg.IOPressureThreshold > 0 && ioP >= cfg.IOPressureThreshold)
	calm := memP < cfg.MemPressureThreshold/2 &&
		(cfg.IOPressureThreshold <= 0 || ioP < cfg.IOPressureThreshold/2)
	switch {
	case breach:
		st.mult *= cutFactor
		st.calm = 0
	case calm:
		st.calm++
		if st.calm >= raiseAfter {
			st.mult *= raiseFactor
			st.calm = 0
		}
	default:
		st.calm = 0
	}
	if st.mult < minMult {
		st.mult = minMult
	}
	if st.mult > maxMult {
		st.mult = maxMult
	}
	return cfg.ReclaimRatio * st.mult
}
