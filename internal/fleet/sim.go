package fleet

import (
	"tmo/internal/core"
	"tmo/internal/place"
	"tmo/internal/psi"
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
// it: advance a barrier window, sample vitals, accept live config pushes.
// Mode changes are not pushed through this interface — the controller
// rebuilds the host instead, exactly like the crash/rejoin path.
type HostSim interface {
	// Advance runs one barrier window and returns its vitals.
	Advance(window vclock.Duration) Vitals
	// SetSenpaiConfig applies a live (same-mode) config push.
	SetSenpaiConfig(cfg senpai.Config)
	// SetPlacementConfig applies a live placement-knob push; hosts without
	// a placement loop (non-CXL modes, twins) ignore it. A nil cfg resets
	// to defaults.
	SetPlacementConfig(cfg *place.Config)
	// SwapCapacityBytes is the host's total offload capacity, for the
	// swap-exhaustion latch.
	SwapCapacityBytes() int64
	// Snapshot returns the host's telemetry registry snapshot. Twins carry
	// no registry and return an empty snapshot.
	Snapshot() telemetry.Snapshot
	// Fidelity reports FidelityFull or FidelityTwin.
	Fidelity() string
}

// SimHost is the full-fidelity HostSim: a page-level core.System plus its
// primary app, with the window-differenced sampling the rollout barrier
// consumes (PSI totals differenced per window, completed-request deltas,
// OOM deltas).
type SimHost struct {
	Sys *core.System
	App *workload.App

	lastMem       vclock.Duration
	lastCompleted int64
	lastOOMs      int64
}

// NewSimHost builds the spec's standalone server (via BuildHost) wrapped in
// the window-sampling adapter.
func NewSimHost(s Spec) *SimHost {
	sys, app := BuildHost(s)
	return &SimHost{Sys: sys, App: app}
}

// Advance implements HostSim.
func (h *SimHost) Advance(window vclock.Duration) Vitals {
	h.Sys.Run(window)
	now := h.Sys.Server.Now()
	tr := h.App.Group.PSI()
	tr.Sync(now)
	memTot := tr.Total(psi.Memory, psi.Some)

	var v Vitals
	v.Pressure = psi.WindowedPressure(h.lastMem, memTot, window)
	h.lastMem = memTot

	completed := h.App.Completed()
	v.RPS = float64(completed-h.lastCompleted) / window.Seconds()
	h.lastCompleted = completed

	ooms := h.Sys.Metrics().OOMEvents
	v.OOMKills = ooms - h.lastOOMs
	h.lastOOMs = ooms

	v.ResidentBytes = float64(h.Sys.NetResidentBytes())
	if sw := h.Sys.Server.Swap(); sw != nil {
		v.SwapStoredBytes = sw.Stats().StoredBytes
	}
	if fl, ok := h.Sys.TelemetrySnapshot().Get("mm.fault_latency_us"); ok {
		v.FaultP99Us = fl.Quantile(0.99)
	}
	return v
}

// SetSenpaiConfig implements HostSim.
func (h *SimHost) SetSenpaiConfig(cfg senpai.Config) { h.Sys.Senpai.SetConfig(cfg) }

// SetPlacementConfig implements HostSim; a no-op on hosts without a
// placement loop.
func (h *SimHost) SetPlacementConfig(cfg *place.Config) {
	if h.Sys.Place == nil {
		return
	}
	if cfg == nil {
		h.Sys.Place.SetConfig(place.DefaultConfig())
		return
	}
	h.Sys.Place.SetConfig(*cfg)
}

// SwapCapacityBytes implements HostSim.
func (h *SimHost) SwapCapacityBytes() int64 { return h.Sys.SwapCapacityBytes() }

// Snapshot implements HostSim.
func (h *SimHost) Snapshot() telemetry.Snapshot { return h.Sys.TelemetrySnapshot() }

// Fidelity implements HostSim.
func (h *SimHost) Fidelity() string { return FidelityFull }

// CalibrationSample is one full-fidelity response-surface measurement: the
// steady-state behaviour of a (device class, mode) host under one pushed
// Senpai configuration, in exactly the normalized units the rollout barrier
// judges (per-window pressure, throughput against the host's own warmed
// baseline, resident savings against the warm-end resident set). The twin
// calibrator (internal/twin) fits its coefficients from these.
type CalibrationSample struct {
	Device string
	Mode   core.Mode

	// Pressure is the mean windowed memory some-pressure over the
	// measurement windows.
	Pressure float64
	// RPSRatio is mean windowed RPS over the host's own warm baseline RPS.
	RPSRatio float64
	// Savings is 1 − mean resident / warm-end resident.
	Savings float64
	// FaultP99Us is the cumulative fault-stall p99 at measurement end.
	FaultP99Us float64
	// SwapUtil is stored/capacity at measurement end (0 when no backend).
	SwapUtil float64
	// OOMRate is OOM kills per second of virtual time measured.
	OOMRate float64
}

// CalibrationRun measures one response-surface point at full fidelity: the
// host warms under baseline (mirroring a rollout's warm-up — the first
// window's boot transient is excluded from the RPS norm), takes the probe
// config as a live push, settles, then averages measureWin windows. The
// sampling semantics match rollout.Controller's barrier exactly, which is
// what makes the fitted twin directly comparable to full-fidelity cohort
// aggregates.
func CalibrationRun(spec Spec, baseline, probe senpai.Config, window vclock.Duration, warmWin, settleWin, measureWin int) CalibrationSample {
	spec = spec.normalize()
	cfg := baseline
	spec.Senpai = &cfg
	out := MeasureResponse(NewSimHost(spec), probe, window, warmWin, settleWin, measureWin)
	out.Device = spec.DeviceClass()
	out.Mode = spec.Mode
	return out
}

// MeasureResponse drives any HostSim — full or twin — through the
// calibration protocol: warm under whatever config the host was built with,
// push the probe, settle, average. The fidelity gate runs a twin and a full
// host through this same path and compares the samples. Device and Mode are
// left for the caller to fill.
func MeasureResponse(h HostSim, probe senpai.Config, window vclock.Duration, warmWin, settleWin, measureWin int) CalibrationSample {
	if warmWin < 2 {
		warmWin = 2
	}
	if measureWin < 1 {
		measureWin = 1
	}
	var warmRPS float64
	var warmRes float64
	for i := 0; i < warmWin; i++ {
		v := h.Advance(window)
		if i >= 1 {
			warmRPS += v.RPS
		}
		warmRes = v.ResidentBytes
	}
	warmRPS /= float64(warmWin - 1)

	h.SetSenpaiConfig(probe)
	for i := 0; i < settleWin; i++ {
		h.Advance(window)
	}

	var out CalibrationSample
	var last Vitals
	var ooms int64
	for i := 0; i < measureWin; i++ {
		v := h.Advance(window)
		out.Pressure += v.Pressure
		if warmRPS > 0 {
			out.RPSRatio += v.RPS / warmRPS
		} else {
			out.RPSRatio += 1
		}
		if warmRes > 0 {
			out.Savings += 1 - v.ResidentBytes/warmRes
		}
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
