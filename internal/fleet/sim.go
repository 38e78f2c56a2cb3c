package fleet

import (
	"tmo/internal/senpai"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// Fidelity names how a host's behaviour is produced: a full page-level
// simulation, or a calibrated analytical twin (internal/twin).
const (
	FidelityFull = "full"
	FidelityTwin = "twin"
)

// Vitals is one barrier window's sampled outputs from a host — the signals
// the rollout control plane aggregates, judges, and scrapes. Both fidelities
// produce the same shape, so guardrails, SLO monitors, and the TSDB operate
// over mixed-fidelity cohorts without knowing which member is which.
type Vitals struct {
	// Pressure is the windowed memory some-pressure fraction.
	Pressure float64
	// RPS is requests/sec completed over the window.
	RPS float64
	// OOMKills counts OOM kills during the window.
	OOMKills int64
	// ResidentBytes is the host's net resident memory at window end.
	ResidentBytes float64
	// SwapStoredBytes is the offload backend's stored bytes at window end.
	SwapStoredBytes int64
	// FaultP99Us is the cumulative page-fault stall p99 in microseconds
	// (zero when the host has taken no faults).
	FaultP99Us float64
}

// HostSim is one fleet member's simulation as the rollout controller drives
// it: advance a barrier window, sample vitals, accept live Senpai config
// pushes. The Senpai config is the only thing pushed live: mode changes are
// not pushed through this interface — the controller rebuilds the host
// instead, exactly like the crash/rejoin path — and the placement loop has
// no settings to push.
type HostSim interface {
	// Advance runs one barrier window and returns its vitals.
	Advance(window vclock.Duration) Vitals
	// SetSenpaiConfig applies a live (same-mode) config push.
	SetSenpaiConfig(cfg senpai.Config)
	// SwapCapacityBytes is the host's total offload capacity, for the
	// swap-exhaustion latch.
	SwapCapacityBytes() int64
	// Snapshot returns the host's telemetry registry snapshot. Twins carry
	// no registry and return an empty snapshot.
	Snapshot() telemetry.Snapshot
}

// SimHost is the full-fidelity HostSim: a page-level host whose app list
// holds only its primary app, each barrier window measured the way an arm's
// window is (app PSI, completed requests and OOMs differenced across it).
type SimHost struct{ Host }

// NewSimHost builds the spec's standalone server (via BuildHost) wrapped in
// the window-sampling adapter.
func NewSimHost(s Spec) *SimHost {
	sys, app := BuildHost(s)
	return &SimHost{Host{System: sys, Apps: []*workload.App{app}}}
}

// Advance implements HostSim.
func (h *SimHost) Advance(window vclock.Duration) Vitals {
	w := h.measure(window, 0)
	v := Vitals{
		Pressure:      w.AppPressure,
		RPS:           w.RPS,
		OOMKills:      w.OOMs,
		ResidentBytes: float64(h.NetResidentBytes()),
		FaultP99Us:    float64(h.Server.Manager().FaultLatency().Quantile(0.99)),
	}
	if sw := h.Server.Swap(); sw != nil {
		v.SwapStoredBytes = sw.Stats().StoredBytes
	}
	return v
}

// SetSenpaiConfig implements HostSim.
func (h *SimHost) SetSenpaiConfig(cfg senpai.Config) { h.Senpai.SetConfig(cfg) }

// Snapshot implements HostSim; SwapCapacityBytes comes from the embedded
// system.
func (h *SimHost) Snapshot() telemetry.Snapshot { return h.TelemetrySnapshot() }

// Response is one host's steady-state response to a pushed Senpai
// configuration, in the units the rollout barrier judges: per-window
// pressure, and throughput and resident savings against the host's own
// Norm. The twin calibrator (internal/twin) fits its surfaces from these,
// and the fidelity gate compares a full host's against a twin's.
type Response struct {
	// Pressure is the mean windowed memory some-pressure over the
	// measurement windows.
	Pressure float64 `json:"pressure"`
	// RPSRatio is mean windowed RPS over the host's own warm baseline RPS.
	RPSRatio float64 `json:"rps_ratio"`
	// Savings is 1 − mean resident / warm-end resident.
	Savings float64 `json:"savings"`
	// FaultP99Us is the cumulative fault-stall p99 at measurement end.
	FaultP99Us float64 `json:"fault_p99_us"`
	// SwapUtil is stored/capacity at measurement end (0 when no backend).
	SwapUtil float64 `json:"swap_util"`
	// OOMRate is OOM kills per second of virtual time measured.
	OOMRate float64 `json:"oom_rate"`
}

// Norm is a host's warm-up reference, the denominator of every normalized
// signal the rollout barrier and the twin calibration judge: the first
// window (boot transient) is skipped, the rest of the warm-up's RPS is
// averaged, and resident bytes are taken at the end of warm-up.
type Norm struct {
	// RPS is the mean RPS over the warm-up windows after the first.
	RPS float64
	// Resident is the net resident bytes at the end of warm-up.
	Resident float64

	windows int
	rpsSum  float64
}

// Warm folds one warm-up window into the norm and reports whether that
// window completed a warm-up of warm windows, fixing RPS and Resident.
func (n *Norm) Warm(v Vitals, warm int) bool {
	n.windows++
	if n.windows >= 2 {
		n.rpsSum += v.RPS
	}
	if n.windows < warm {
		return false
	}
	n.RPS = n.rpsSum / float64(n.windows-1)
	n.Resident = v.ResidentBytes
	return true
}

// Ratios normalizes a window's RPS and resident bytes by the norm; each
// ratio is 1 where the norm's value is zero.
func (n *Norm) Ratios(v Vitals) (rps, res float64) {
	rps, res = 1, 1
	if n.RPS > 0 {
		rps = v.RPS / n.RPS
	}
	if n.Resident > 0 {
		res = v.ResidentBytes / n.Resident
	}
	return rps, res
}

// MeasureResponse drives any HostSim — full or twin — through the
// calibration protocol: warm under whatever config the host was built with
// into a Norm, push the probe as a live config, settle, then average
// measureWin windows. Calibration and the fidelity gate both measure
// through this one path, with windows twin.CalibrateConfig has already
// normalised (warmWin >= 2, measureWin >= 1).
func MeasureResponse(h HostSim, probe senpai.Config, window vclock.Duration, warmWin, settleWin, measureWin int) Response {
	var norm Norm
	for i := 0; i < warmWin; i++ {
		norm.Warm(h.Advance(window), warmWin)
	}

	h.SetSenpaiConfig(probe)
	for i := 0; i < settleWin; i++ {
		h.Advance(window)
	}

	var out Response
	var last Vitals
	var ooms int64
	for i := 0; i < measureWin; i++ {
		v := h.Advance(window)
		rps, res := norm.Ratios(v)
		out.Pressure += v.Pressure
		out.RPSRatio += rps
		out.Savings += 1 - res
		ooms += v.OOMKills
		last = v
	}
	n := float64(measureWin)
	out.Pressure /= n
	out.RPSRatio /= n
	out.Savings /= n
	out.FaultP99Us = last.FaultP99Us
	if cap := h.SwapCapacityBytes(); cap > 0 {
		out.SwapUtil = float64(last.SwapStoredBytes) / float64(cap)
	}
	out.OOMRate = float64(ooms) / (n * window.Seconds())
	return out
}
