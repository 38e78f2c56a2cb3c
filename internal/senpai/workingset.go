package senpai

import (
	"tmo/internal/cgroup"
	"tmo/internal/vclock"
)

// §3.3: beyond offloading, Senpai "provides an accurate workingset profile
// of the application over time. This allows application developers to more
// precisely provision memory capacity for their workloads." This file
// implements that profiling: the controller already drives each container
// to the smallest resident set that keeps pressure subliminal, so the
// resident trajectory it observes *is* the working-set estimate.

// WorkingSetProfile summarises what the controller learned about one
// container's real memory requirement.
type WorkingSetProfile struct {
	// Samples is how many control intervals contributed.
	Samples int64
	// CurrentBytes is the most recent resident size.
	CurrentBytes int64
	// MinBytes is the smallest resident size observed while pressure
	// stayed below the target threshold — the tightest provisioning that
	// held SLOs so far.
	MinBytes int64
	// MaxBytes is the largest observed resident size (the footprint a
	// naive provisioner would reserve).
	MaxBytes int64
	// LastUpdate is the virtual time of the last sample.
	LastUpdate vclock.Time
}

// OverprovisionFrac is the share of the peak footprint the workload never
// needed: 1 − min/max.
func (w WorkingSetProfile) OverprovisionFrac() float64 {
	if w.MaxBytes == 0 {
		return 0
	}
	return 1 - float64(w.MinBytes)/float64(w.MaxBytes)
}

// observe folds one control interval's observation into the
// profile. Only healthy intervals (pressure under threshold) update the
// minimum: a resident size reached while the workload was already hurting
// is not a safe provisioning target.
func (w *WorkingSetProfile) observe(cfg Config, now vclock.Time, current int64, memP float64) {
	w.Samples++
	w.CurrentBytes = current
	w.LastUpdate = now
	if current > w.MaxBytes {
		w.MaxBytes = current
	}
	if memP < cfg.MemPressureThreshold {
		if w.MinBytes == 0 || current < w.MinBytes {
			w.MinBytes = current
		}
	}
}

// WorkingSet returns the profile accumulated for g.
func (c *Controller) WorkingSet(g *cgroup.Group) WorkingSetProfile { return c.find(g).ws }
