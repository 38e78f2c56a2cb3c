package twin

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/senpai"
	"tmo/internal/vclock"
)

// CalibrateConfig describes one calibration campaign: which device classes
// (one representative spec per class), which offload modes, and which probe
// policies to measure at full fidelity.
type CalibrateConfig struct {
	// Specs carries one representative host spec per device class. Spec
	// Mode and Senpai are overridden per calibration point.
	Specs []fleet.Spec
	// Modes are the offload modes to fit surfaces for.
	Modes []core.Mode
	// Tiers optionally extends the cross product with swap chain layouts:
	// each non-empty layout fits an extra surface per (class, mode) keyed by
	// its fleet.TierSignature, which LookupBackend prefers over the plain
	// (class, mode) fit. The default-layout base surface is always fitted;
	// empty entries are skipped.
	Tiers [][]backend.TierSpec
	// Baseline is the config hosts warm under (typically the rollout
	// baseline: reclaim idle). It also anchors every surface's a≈0 rung.
	Baseline senpai.Config
	// Probes is the policy ladder measured per (class, mode). The baseline
	// anchor is added automatically; rungs are sorted by aggressiveness.
	Probes []senpai.Config
	// Window is the barrier window; default 30s.
	Window vclock.Duration
	// WarmWindows/SettleWindows/MeasureWindows shape each point's run;
	// defaults 4/4/6.
	WarmWindows, SettleWindows, MeasureWindows int
	// Seed derives each calibration host's seed.
	Seed uint64
	// Replicas is how many independently seeded hosts each rung averages
	// over; default 3. Single-seed rungs inherit that seed's luck — savings
	// spread between seeds can exceed the fidelity tolerance on growthy
	// app classes.
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
	if c.WarmWindows < 2 {
		c.WarmWindows = 4
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

// calPoint is one (spec, mode, backend, probe) measurement assignment.
type calPoint struct {
	spec  fleet.Spec
	mode  core.Mode
	sig   string
	probe senpai.Config
}

// Calibrate fits one surface per (device class, mode) by measuring every
// probe at full fidelity over a worker pool. Results are deterministic:
// each point is an independent seeded simulation written by index, rungs
// are sorted by aggressiveness, and rungs that collapse onto the same
// aggressiveness are averaged.
func Calibrate(cfg CalibrateConfig) *CoefficientSet {
	cfg = cfg.normalize()
	probes := append([]senpai.Config{cfg.Baseline}, cfg.Probes...)

	// The default-layout base surface always calibrates; each explicit
	// layout adds a signature-keyed surface per (class, mode).
	layouts := [][]backend.TierSpec{nil}
	for _, tiers := range cfg.Tiers {
		if len(tiers) > 0 {
			layouts = append(layouts, tiers)
		}
	}

	var points []calPoint
	for _, spec := range cfg.Specs {
		for _, mode := range cfg.Modes {
			for _, tiers := range layouts {
				for _, p := range probes {
					for r := 0; r < cfg.Replicas; r++ {
						s := spec
						s.Mode = mode
						if len(tiers) > 0 {
							s.Tiers = tiers
						}
						points = append(points, calPoint{spec: s, mode: mode, sig: fleet.TierSignature(tiers), probe: p})
					}
				}
			}
		}
	}
	for i := range points {
		points[i].spec.Seed = cfg.Seed + uint64(i)*7919
	}

	samples := make([]fleet.CalibrationSample, len(points))
	workers := cfg.Workers
	if workers > len(points) {
		workers = len(points)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				pt := points[i]
				samples[i] = fleet.CalibrationRun(pt.spec, cfg.Baseline, pt.probe,
					cfg.Window, cfg.WarmWindows, cfg.SettleWindows, cfg.MeasureWindows)
			}
		}()
	}
	for i := range points {
		idx <- i
	}
	close(idx)
	wg.Wait()

	rungs := map[string][]ProbePoint{}
	for i, pt := range points {
		k := KeyBackend(samples[i].Device, pt.mode, pt.sig)
		rungs[k] = append(rungs[k], ProbePoint{
			A:          Aggressiveness(pt.probe),
			Pressure:   samples[i].Pressure,
			RPSRatio:   samples[i].RPSRatio,
			Savings:    samples[i].Savings,
			FaultP99Us: samples[i].FaultP99Us,
			SwapUtil:   samples[i].SwapUtil,
			OOMRate:    samples[i].OOMRate,
		})
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
		j := i
		var acc ProbePoint
		for j < len(sur) && sur[j].A == sur[i].A {
			p := sur[j]
			acc.Pressure += p.Pressure
			acc.RPSRatio += p.RPSRatio
			acc.Savings += p.Savings
			acc.FaultP99Us += p.FaultP99Us
			acc.SwapUtil += p.SwapUtil
			acc.OOMRate += p.OOMRate
			j++
		}
		n := float64(j - i)
		acc.A = sur[i].A
		acc.Pressure /= n
		acc.RPSRatio /= n
		acc.Savings /= n
		acc.FaultP99Us /= n
		acc.SwapUtil /= n
		acc.OOMRate /= n
		out = append(out, acc)
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
