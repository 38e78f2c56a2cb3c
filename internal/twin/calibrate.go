package twin

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/senpai"
	"tmo/internal/vclock"
)

// CalibrateConfig describes one measurement campaign: which device classes
// (one representative spec per class), which offload modes and swap chain
// layouts, and which probe policies to measure at full fidelity. Calibrate
// fits surfaces from it; the fidelity gate (CheckFidelity, whose
// FidelityConfig is this type) walks the same spec × mode × layout × probe ×
// replica product with holdout probes.
type CalibrateConfig struct {
	// Specs carries one representative host spec per device class. Spec
	// Mode and Senpai are overridden per measurement point.
	Specs []fleet.Spec
	// Modes are the offload modes to measure.
	Modes []core.Mode
	// Tiers optionally extends the product with swap chain layouts: each
	// non-empty layout replaces the specs' own, so it gets its own surface
	// per (class, mode) under Key. The specs' own layout is always measured;
	// empty entries are skipped.
	Tiers [][]backend.TierSpec
	// Baseline is the config hosts warm under (typically the rollout
	// baseline: reclaim idle). It also anchors every surface's a≈0 rung.
	Baseline senpai.Config
	// Probes are the policies measured per (class, mode, layout). For
	// Calibrate they are the surface's rungs (the baseline anchor is added
	// automatically; rungs are sorted by aggressiveness); for the gate they
	// are holdout policies, typically between calibration rungs, where
	// interpolation is actually tested.
	Probes []senpai.Config
	// Window is the barrier window; the gate defaults it to the coefficient
	// set's window, Calibrate to 30s.
	Window vclock.Duration
	// WarmWindows/SettleWindows/MeasureWindows shape each point's run;
	// defaults 4/4/6. WarmWindows follows rollout.Config's rule: minimum
	// 2, so 1 becomes 2.
	WarmWindows, SettleWindows, MeasureWindows int
	// Seed derives each measured host's seed. The gate derives its seeds
	// with its own offset and stride, so it never grades the twin against
	// the very runs it was fitted from.
	Seed uint64
	// Replicas is how many independently seeded hosts each point averages
	// over; default 3. Single-seed rungs inherit that seed's luck — savings
	// spread between seeds can exceed the fidelity tolerance on growthy
	// app classes — so the gate judges calibration drift, not luck.
	Replicas int
	// Workers bounds the measurement pool; default NumCPU (each point is
	// an independent seeded full simulation).
	Workers int
}

func (c CalibrateConfig) normalize() CalibrateConfig {
	if len(c.Specs) == 0 {
		panic("twin: CalibrateConfig.Specs required")
	}
	if len(c.Modes) == 0 {
		panic("twin: CalibrateConfig.Modes required")
	}
	if c.Baseline.Interval <= 0 {
		panic("twin: CalibrateConfig.Baseline needs a senpai config (zero interval)")
	}
	if c.Window <= 0 {
		c.Window = 30 * vclock.Second
	}
	switch {
	case c.WarmWindows <= 0:
		c.WarmWindows = 4
	case c.WarmWindows < 2:
		c.WarmWindows = 2
	}
	if c.SettleWindows <= 0 {
		c.SettleWindows = 4
	}
	if c.MeasureWindows <= 0 {
		c.MeasureWindows = 6
	}
	if c.Replicas <= 0 {
		c.Replicas = 3
	}
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	return c
}

// point is one measurement of the config's product.
type point struct {
	// spec carries the point's mode, layout and baseline Senpai config; the
	// caller assigns its seed.
	spec  fleet.Spec
	key   string
	probe senpai.Config
}

// points enumerates spec × mode × layout × probe × replica in that order,
// replicas innermost, so each run of Replicas consecutive points shares one
// (spec, mode, layout, probe).
func (c CalibrateConfig) points(probes []senpai.Config) []point {
	layouts := [][]backend.TierSpec{nil}
	for _, tiers := range c.Tiers {
		if len(tiers) > 0 {
			layouts = append(layouts, tiers)
		}
	}
	var out []point
	for _, spec := range c.Specs {
		for _, mode := range c.Modes {
			for _, tiers := range layouts {
				s := spec
				s.Mode = mode
				if len(tiers) > 0 {
					s.Tiers = tiers
				}
				key := Key(s)
				for _, p := range probes {
					for r := 0; r < c.Replicas; r++ {
						base := c.Baseline
						s.Senpai = &base
						out = append(out, point{spec: s, key: key, probe: p})
					}
				}
			}
		}
	}
	return out
}

// measure runs the calibration protocol on h under the config's geometry.
func (c CalibrateConfig) measure(h fleet.HostSim, probe senpai.Config) fleet.Response {
	return fleet.MeasureResponse(h, probe, c.Window, c.WarmWindows, c.SettleWindows, c.MeasureWindows)
}

// DefaultProbes returns a probe ladder bracketing the usual rollout
// candidate range: multiples of the base config's reclaim ratio from mild
// to well past Config B aggression (the hottest rung also raises the
// pressure threshold and probe cap the way a genuinely unsafe candidate
// does, so the surface's top end reflects a policy worth tripping on).
func DefaultProbes(base senpai.Config) []senpai.Config {
	mults := []float64{2, 10, 40}
	out := make([]senpai.Config, 0, len(mults)+1)
	for _, m := range mults {
		c := base
		c.ReclaimRatio = senpai.ConfigA().ReclaimRatio * m
		out = append(out, c)
	}
	hot := base
	hot.ReclaimRatio = senpai.ConfigA().ReclaimRatio * 120
	hot.MemPressureThreshold *= 50
	hot.IOPressureThreshold *= 10
	hot.MaxProbeFrac *= 5
	out = append(out, hot)
	return out
}

// Calibrate fits one surface per measured Key by measuring every probe at
// full fidelity over a worker pool. Results are deterministic: each point is
// an independent seeded simulation written by index, rungs are sorted by
// aggressiveness, and rungs that collapse onto the same aggressiveness are
// averaged.
func Calibrate(cfg CalibrateConfig) *CoefficientSet {
	cfg = cfg.normalize()
	pts := cfg.points(append([]senpai.Config{cfg.Baseline}, cfg.Probes...))
	for i := range pts {
		pts[i].spec.Seed = cfg.Seed + uint64(i)*7919
	}
	samples := make([]fleet.Response, len(pts))
	fleet.Parallel(len(pts), cfg.Workers, func(i int) {
		samples[i] = cfg.measure(fleet.NewSimHost(pts[i].spec), pts[i].probe)
	})

	rungs := map[string][]ProbePoint{}
	for i, pt := range pts {
		rungs[pt.key] = append(rungs[pt.key], ProbePoint{A: Aggressiveness(pt.probe), Response: samples[i]})
	}

	cs := &CoefficientSet{Surfaces: map[string]Surface{}, Window: cfg.Window, Seed: cfg.Seed}
	// Mean delay between the warm-end resident anchor and the measurement
	// windows: the geometry the anchor rung's savings was measured over, and
	// therefore the denominator turning it into a drift rate.
	delaySec := (float64(cfg.SettleWindows) + (float64(cfg.MeasureWindows)+1)/2) * cfg.Window.Seconds()
	for k, r := range rungs {
		cs.Surfaces[k] = fitSurface(mergeRungs(r), delaySec)
	}
	return cs
}

// mergeRungs sorts rungs by aggressiveness and averages rungs measured at
// the same aggressiveness (replicas, or two specs sharing a device class).
func mergeRungs(sur []ProbePoint) []ProbePoint {
	sort.SliceStable(sur, func(i, j int) bool { return sur[i].A < sur[j].A })
	var out []ProbePoint
	for i := 0; i < len(sur); {
		var group []fleet.Response
		j := i
		for ; j < len(sur) && sur[j].A == sur[i].A; j++ {
			group = append(group, sur[j].Response)
		}
		out = append(out, ProbePoint{A: sur[i].A, Response: mean(group)})
		i = j
	}
	return out
}

// fitSurface re-anchors a merged rung set. The baseline (lowest-A) rung is
// what the class does with no policy acting: any savings it shows against
// the warm-end anchor is pure resident drift over the measurement delay. It
// is fitted as a linear time trend and subtracted from every rung, leaving
// Savings as the policy's marginal response.
func fitSurface(r []ProbePoint, delaySec float64) Surface {
	s := Surface{Rungs: r}
	if len(r) == 0 || delaySec <= 0 {
		return s
	}
	s0 := r[0].Savings
	s.ResidentDriftPerSec = -s0 / delaySec
	for i := range r {
		r[i].Savings -= s0
	}
	return s
}

// WriteJSON exports the coefficient artifact. encoding/json sorts map keys,
// so identical calibrations export identical bytes.
func (cs *CoefficientSet) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(cs)
}

// ReadJSON loads a coefficient artifact written by WriteJSON.
func ReadJSON(r io.Reader) (*CoefficientSet, error) {
	var cs CoefficientSet
	if err := json.NewDecoder(r).Decode(&cs); err != nil {
		return nil, fmt.Errorf("twin: decoding coefficients: %w", err)
	}
	if len(cs.Surfaces) == 0 {
		return nil, fmt.Errorf("twin: coefficient artifact carries no surfaces")
	}
	return &cs, nil
}
