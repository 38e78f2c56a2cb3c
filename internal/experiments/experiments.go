// Package experiments regenerates every table and figure of the paper's
// evaluation on the simulated substrate. Each FigureN function runs the
// corresponding experiment and returns a typed result carrying both the
// figure's data series and a Render method producing a terminal-friendly
// report; cmd/experiments prints them all, and the root-level benchmarks
// time each one.
//
// Absolute numbers differ from the paper — the substrate is a scaled
// simulator, not Meta's fleet — so each result also exposes the *shape*
// checks the reproduction is judged on (who wins, directionality,
// crossovers). The package tests assert those shapes.
package experiments

import (
	"tmo/internal/cgroup"
	"tmo/internal/core"
	"tmo/internal/metrics"
	"tmo/internal/psi"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks durations and footprints so a figure regenerates in
	// seconds (used by tests and benchmarks). Full scale is the default
	// for cmd/experiments.
	Quick bool
	// Seed makes the whole experiment deterministic.
	Seed uint64
}

// dur picks between full and quick durations.
func (c Config) dur(full, quick vclock.Duration) vclock.Duration {
	if c.Quick {
		return quick
	}
	return full
}

// scale picks the workload footprint scale.
func (c Config) scale() float64 {
	if c.Quick {
		return 0.5
	}
	return 1.0
}

// profile loads a catalog profile at the configured scale.
func (c Config) profile(name string) workload.Profile {
	return workload.MustCatalog(name).Scale(c.scale())
}

// Result is implemented by every figure's output.
type Result interface {
	// Render returns a human-readable report of the regenerated figure.
	Render() string
}

// sampler records time series from a running system at a fixed cadence.
type sampler struct {
	every vclock.Duration
	last  vclock.Time
	fns   []func(now vclock.Time)
}

func newSampler(every vclock.Duration) *sampler { return &sampler{every: every} }

func (s *sampler) add(fn func(now vclock.Time)) { s.fns = append(s.fns, fn) }

// onTick is registered as a sim observer.
func (s *sampler) onTick(now vclock.Time) {
	if s.last != 0 && now.Sub(s.last) < s.every {
		return
	}
	s.last = now
	for _, fn := range s.fns {
		fn(now)
	}
}

// rate converts successive readings of a cumulative total into a series of
// per-interval rates: a counter per second, or a PSI stall total per unit of
// time — a pressure fraction.
type rate[V int64 | vclock.Duration] struct {
	read   func() V
	per    func(vclock.Duration) float64 // an interval in the rate's unit
	series *metrics.Series
	last   V
	lastT  vclock.Time
	primed bool
}

// newCounterRate records a counter's per-second rate into s.
func newCounterRate(s *metrics.Series, read func() int64) *rate[int64] {
	return &rate[int64]{read: read, per: vclock.Duration.Seconds, series: s}
}

// newPressureRate records the pressure fraction of a PSI total into s.
func newPressureRate(s *metrics.Series, read func() vclock.Duration) *rate[vclock.Duration] {
	return &rate[vclock.Duration]{read: read, per: func(d vclock.Duration) float64 { return float64(d) }, series: s}
}

func (r *rate[V]) sample(now vclock.Time) {
	v := r.read()
	if dt := now.Sub(r.lastT); r.primed && dt > 0 {
		r.series.Record(now, float64(v-r.last)/r.per(dt))
	}
	r.primed, r.last, r.lastT = true, v, now
}

// someTotal returns g's some-stall total on r, synced to the host's clock.
// Syncing only integrates the tracker up to now; it leaves the run unchanged.
func someTotal(sys *core.System, g *cgroup.Group, r psi.Resource) vclock.Duration {
	tr := g.PSI()
	tr.Sync(sys.Server.Now())
	return tr.Total(r, psi.Some)
}
