// Package twin is the cheap half of the two-fidelity fleet engine: a
// calibrated analytical host model that advances in O(1) per rollout window
// instead of O(pages), so guardrail-judged rollouts, bandit races, and SLO
// burn monitoring can run over 100k–1M hosts at the wall-clock of a
// few-hundred-host full simulation.
//
// A twin does not simulate memory management. It evaluates *response
// surfaces* — steady-state windowed PSI pressure, resident-memory savings,
// normalized throughput, fault-stall p99, swap utilization, and OOM hazard
// as functions of the pushed policy's aggressiveness — fitted per host spec
// (device class, offload mode, and swap chain layout; see Key) from
// full-fidelity fleet.MeasureResponse measurements, and relaxes its EWMA
// state toward those targets each window. Deterministic per-host seed
// perturbation (a splitmix64 stream) adds the spread and churn a real
// cohort shows, so cohort aggregates over twins have realistic variance, and
// the same seed always reproduces the same vitals byte for byte.
//
// The approach follows the analytical-twin validation methodology of the
// LLM inference-sim work the ROADMAP cites: the surrogate is only trusted
// where a fidelity gate (CheckFidelity) has pinned its drift against the
// discrete simulation under a stated tolerance.
package twin

import (
	"math"

	"tmo/internal/fleet"
	"tmo/internal/senpai"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// refRatio/refThreshold anchor the aggressiveness feature at the paper's
// production Config A, so a = ~1 means "production shaped".
const (
	refRatio     = 0.0005
	refThreshold = 0.001
)

// Aggressiveness maps a Senpai configuration onto the twin's scalar policy
// feature: the effective per-second reclaim fraction the config can sustain
// (ratio capped by the probe limit, spread over the interval), scaled by how
// much pressure headroom the threshold grants. It is monotone in the knobs
// that make a policy hotter, which is all the piecewise-linear response
// surfaces require; the absolute value is normalized so Config A sits near
// 1.0.
func Aggressiveness(cfg senpai.Config) float64 {
	if cfg.Interval <= 0 || cfg.ReclaimRatio <= 0 {
		return 0
	}
	ratio := cfg.ReclaimRatio
	if cfg.MaxProbeFrac > 0 && ratio > cfg.MaxProbeFrac {
		ratio = cfg.MaxProbeFrac
	}
	perSec := ratio / cfg.Interval.Seconds()
	head := 1.0
	if cfg.MemPressureThreshold > 0 {
		head = math.Sqrt(cfg.MemPressureThreshold / refThreshold)
	}
	return perSec * head / (refRatio / (6.0))
}

// ProbePoint is one rung of a fitted response surface: the measured
// steady-state response at one policy aggressiveness. encoding/json flattens
// the embedded Response, so a rung exports as one flat object.
type ProbePoint struct {
	// A is the policy aggressiveness the rung was measured at.
	A float64 `json:"a"`
	fleet.Response
}

// Surface is a response surface: probe rungs sorted by A, evaluated by
// clamped linear interpolation, plus the class's fitted baseline resident
// drift. Piecewise-linear interpolation over the measured rungs is the
// honest fit — drift at the rungs is zero by construction, and the fidelity
// gate judges the interpolation between them on holdout policies.
type Surface struct {
	// Rungs are the measured probe points, sorted by A. Savings is stored
	// re-anchored: the baseline rung's savings is folded into
	// ResidentDriftPerSec, so Rungs[0].Savings ≈ 0.
	Rungs []ProbePoint `json:"rungs"`
	// ResidentDriftPerSec models the class's resident-set growth under the
	// baseline config as a linear rate. Apps that are still growing their
	// footprint show *negative* savings against a warm-end anchor the longer
	// they run; a static surface cannot reproduce that, so the calibrator
	// fits the anchor rung's savings as a time trend instead of a level.
	ResidentDriftPerSec float64 `json:"resident_drift_per_sec"`
}

// Eval interpolates the surface at aggressiveness a. Outside the measured
// range the surface clamps to its end rungs: extrapolating a hotter-than-
// measured policy would be invention, and clamping keeps an unsafe policy
// looking at least as unsafe as the hottest rung actually measured.
func (s Surface) Eval(a float64) ProbePoint {
	r := s.Rungs
	if len(r) == 0 {
		return ProbePoint{Response: fleet.Response{RPSRatio: 1}}
	}
	if a <= r[0].A {
		return ProbePoint{A: a, Response: r[0].Response}
	}
	if a >= r[len(r)-1].A {
		return ProbePoint{A: a, Response: r[len(r)-1].Response}
	}
	i := 1
	for i < len(r) && r[i].A < a {
		i++
	}
	lo, hi := r[i-1], r[i]
	return ProbePoint{A: a, Response: lerp(lo.Response, hi.Response, (a-lo.A)/(hi.A-lo.A))}
}

// zip combines two responses field by field.
func zip(x, y fleet.Response, f func(x, y float64) float64) fleet.Response {
	return fleet.Response{
		Pressure:   f(x.Pressure, y.Pressure),
		RPSRatio:   f(x.RPSRatio, y.RPSRatio),
		Savings:    f(x.Savings, y.Savings),
		FaultP99Us: f(x.FaultP99Us, y.FaultP99Us),
		SwapUtil:   f(x.SwapUtil, y.SwapUtil),
		OOMRate:    f(x.OOMRate, y.OOMRate),
	}
}

// lerp interpolates field by field: f = 0 is lo, f = 1 is hi.
func lerp(lo, hi fleet.Response, f float64) fleet.Response {
	return zip(lo, hi, func(x, y float64) float64 { return x + f*(y-x) })
}

// mean averages responses field by field: each field sums in order, then
// divides by the count.
func mean(rs []fleet.Response) fleet.Response {
	var m fleet.Response
	for _, r := range rs {
		m = zip(m, r, func(x, y float64) float64 { return x + y })
	}
	n := float64(len(rs))
	return zip(m, m, func(x, _ float64) float64 { return x / n })
}

// Key names the surface a host spec runs on: its device class and offload
// mode, plus the fleet.TierSignature of its swap chain layout when the spec
// lays one out (a spec without Tiers runs the mode's default layout).
func Key(spec fleet.Spec) string {
	k := spec.DeviceClass() + "|" + spec.Mode.String()
	if len(spec.Tiers) > 0 {
		k += "|" + fleet.TierSignature(spec.Tiers)
	}
	return k
}

// CoefficientSet is the calibration artifact: one fitted surface per host
// spec Key, plus the calibration geometry, exportable as deterministic JSON
// (cmd/rolloutsim -calib-out; CI uploads it alongside BENCH_core.json).
type CoefficientSet struct {
	// Surfaces maps Key(spec) to the surface fitted on that spec.
	Surfaces map[string]Surface `json:"surfaces"`
	// Window is the barrier window the surfaces were measured at.
	Window vclock.Duration `json:"window_us"`
	// Seed is the calibration seed.
	Seed uint64 `json:"seed"`
}

// Lookup returns the surface fitted for the spec's Key. There is no
// fallback: a layout the calibration never measured has no surface.
func (cs *CoefficientSet) Lookup(spec fleet.Spec) (Surface, bool) {
	s, ok := cs.Surfaces[Key(spec)]
	return s, ok
}

// Response time constants: EWMA state relaxes toward the surface targets
// with tauSurface (matching roughly how fast a full host converges after a
// policy push at calibration scale); swap utilization fills more slowly.
const (
	tauSurface = 45.0 * float64(vclock.Second)
	tauSwap    = 120.0 * float64(vclock.Second)
)

// Jitter amplitudes: relative sigma of the per-window noise on each vital.
// They give twin cohorts the spread a real cohort shows without moving the
// window means the guardrails judge.
const (
	sigPressure = 0.10
	sigRPS      = 0.02
	sigResident = 0.01
	sigFault    = 0.05
)

// Host is one analytical twin, implementing fleet.HostSim. All state is a
// handful of floats: Advance is O(1) and allocation-free.
type Host struct {
	sur Surface

	// rng is a splitmix64 stream seeded from the host's perturbed seed.
	rng uint64

	// footprint anchors the absolute scales (resident bytes, nominal swap
	// capacity); the rollout normalizes them away per host.
	footprint float64
	baseRPS   float64

	// a is the aggressiveness of the config currently in force.
	a float64

	// alpha and alphaSwap are the EWMA steps 1 − exp(−window/τ) for the
	// window length last advanced by.
	window           vclock.Duration
	alpha, alphaSwap float64

	// ageSec is virtual seconds since boot, driving the surface's fitted
	// baseline resident drift.
	ageSec float64

	// EWMA state relaxing toward the surface targets.
	pressure, rpsRatio, savings, faultP99, swapUtil float64
}

// Footprint is the spec's primary-app footprint in bytes at the spec's
// scale (1 when unset): the anchor NewHost takes. It depends only on the
// app and scale, so a fleet resolves it once per distinct pair.
func Footprint(spec fleet.Spec) int64 {
	scale := spec.Scale
	if scale <= 0 {
		scale = 1
	}
	return workload.MustCatalog(spec.App).Scale(scale).FootprintBytes
}

// NewHost builds a twin for the spec under its boot-time Senpai config
// (rollout policy pushes arrive via SetSenpaiConfig; mode changes rebuild
// the twin just like a full host). The seed argument is the *perturbed*
// seed — callers fold incarnations in exactly as they do for full hosts, so
// a rebooted twin does not replay its previous life. footprintBytes is
// Footprint(spec).
func NewHost(spec fleet.Spec, sur Surface, seed uint64, footprintBytes int64) *Host {
	h := &Host{
		sur:       sur,
		rng:       seed ^ 0x9e3779b97f4a7c15,
		footprint: float64(footprintBytes),
	}
	// Base RPS carries per-host spread so cohort aggregates over twins have
	// realistic variance even before any policy acts.
	h.baseRPS = 100 * (1 + 0.1*h.gauss())
	h.rpsRatio = 1
	if spec.Senpai != nil {
		h.a = Aggressiveness(*spec.Senpai)
	}
	// Boot at the baseline rungs so warm-up looks settled, like a full host
	// after its boot transient.
	t := sur.Eval(h.a)
	h.pressure = t.Pressure
	h.rpsRatio = t.RPSRatio
	h.savings = t.Savings
	h.faultP99 = t.FaultP99Us
	h.swapUtil = t.SwapUtil
	return h
}

// next steps the splitmix64 stream.
func (h *Host) next() uint64 {
	h.rng += 0x9e3779b97f4a7c15
	z := h.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform returns a float in [0, 1).
func (h *Host) uniform() float64 { return float64(h.next()>>11) / (1 << 53) }

// gauss returns an approximately standard-normal deviate (Irwin–Hall with
// three uniforms), deterministic per stream.
func (h *Host) gauss() float64 {
	return (h.uniform() + h.uniform() + h.uniform() - 1.5) * 2
}

// Advance implements fleet.HostSim: relax the EWMA state toward the surface
// targets for the policy in force, jitter, and report vitals.
func (h *Host) Advance(window vclock.Duration) fleet.Vitals {
	t := h.sur.Eval(h.a)
	if window != h.window {
		h.window = window
		h.alpha = 1 - math.Exp(-float64(window)/tauSurface)
		h.alphaSwap = 1 - math.Exp(-float64(window)/tauSwap)
	}
	h.pressure += h.alpha * (t.Pressure - h.pressure)
	h.rpsRatio += h.alpha * (t.RPSRatio - h.rpsRatio)
	h.savings += h.alpha * (t.Savings - h.savings)
	h.faultP99 += h.alpha * (t.FaultP99Us - h.faultP99)
	h.swapUtil += h.alphaSwap * (t.SwapUtil - h.swapUtil)
	if h.swapUtil < 0 {
		h.swapUtil = 0
	} else if h.swapUtil > 1 {
		h.swapUtil = 1
	}

	h.ageSec += window.Seconds()

	var v fleet.Vitals
	v.Pressure = h.pressure * (1 + sigPressure*h.gauss())
	if v.Pressure < 0 {
		v.Pressure = 0
	}
	v.RPS = h.baseRPS * h.rpsRatio * (1 + sigRPS*h.gauss())
	if v.RPS < 0 {
		v.RPS = 0
	}
	// Resident carries the class's fitted baseline growth trend on top of the
	// policy's savings response, clamped so a runaway trend cannot dwarf the
	// footprint anchor.
	grow := 1 + h.sur.ResidentDriftPerSec*h.ageSec
	if grow < 0.25 {
		grow = 0.25
	} else if grow > 2 {
		grow = 2
	}
	v.ResidentBytes = h.footprint * grow * (1 - h.savings) * (1 + sigResident*h.gauss())
	v.FaultP99Us = h.faultP99 * (1 + sigFault*h.gauss())
	if v.FaultP99Us < 0 {
		v.FaultP99Us = 0
	}
	v.SwapStoredBytes = int64(h.swapUtil * h.footprint)
	// OOM hazard: one draw per window against the calibrated kill rate.
	if t.OOMRate > 0 {
		p := 1 - math.Exp(-t.OOMRate*window.Seconds())
		if h.uniform() < p {
			v.OOMKills = 1
		}
	} else {
		// Burn one draw regardless, so hazard-free and hazardous surfaces
		// consume the stream identically and vitals stay comparable.
		_ = h.uniform()
	}
	return v
}

// SetSenpaiConfig implements fleet.HostSim: a live policy push re-targets
// the surfaces.
func (h *Host) SetSenpaiConfig(cfg senpai.Config) { h.a = Aggressiveness(cfg) }

// SwapCapacityBytes implements fleet.HostSim. The twin's nominal capacity
// is its footprint: swap-stored bytes report utilization × footprint, so
// stored/capacity reproduces the calibrated utilization exactly.
func (h *Host) SwapCapacityBytes() int64 { return int64(h.footprint) }

// Snapshot implements fleet.HostSim; twins carry no telemetry registry.
func (h *Host) Snapshot() telemetry.Snapshot { return telemetry.Snapshot{} }
