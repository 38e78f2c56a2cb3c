package rollout

import (
	"fmt"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/senpai"
)

// Policy is the artifact a rollout pushes: not just how aggressively Senpai
// trims, but *what* the host runs — the offload mode plus the controller
// configuration, with an optional swap chain layout. Pushing a policy whose
// mode matches the host's running mode is a live config swap
// (Senpai.SetConfig); a mode-changing push rebuilds the host through the
// same fleet.BuildHost path a crash/rejoin uses, at a stage barrier, so
// zswap → tiered style migrations stage exactly like config tunings. A
// ModeCXL host's placement loop has no settings to push: it runs the one
// configuration internal/place fixes for every host.
//
// Precedence: a policy in force always wins over the host's fleet.Spec —
// Spec.Mode and Spec.Senpai describe the host's standalone state and are
// overridden on every build and push while the host is owned by a rollout
// controller.
type Policy struct {
	// Name labels the policy in the event log, reports, and telemetry.
	// Defaults: "baseline" for Config.Baseline, "cand-K" for candidates.
	Name string
	// Mode is the offload mode the host must run; required (ModeOff is not
	// a rollout target — Senpai must exist for configs to be pushed to).
	Mode core.Mode
	// Config is the Senpai configuration to run.
	Config senpai.Config
	// Tiers is the swap chain layout hosts are built with under this policy
	// (see core.Options.Tiers), so the bandit can race tier configurations;
	// its fleet.TierSignature keys twin surfaces. Empty keeps the spec's own
	// layout. Applied on (re)build only — it cannot change live.
	Tiers []backend.TierSpec
}

// validate panics unless the policy is usable, naming who it belongs to.
func (p Policy) validate(who string) {
	if p.Mode == core.ModeOff {
		panic(fmt.Sprintf("rollout: %s policy %q needs an offloading mode", who, p.Name))
	}
	if p.Config.Interval <= 0 {
		panic(fmt.Sprintf("rollout: %s policy %q needs a senpai config (zero interval)", who, p.Name))
	}
}

// Unlimited disables a count guardrail (MaxOOMKills, MaxSwapLatched), whose
// zero values mean "none tolerated" rather than "check off".
const Unlimited = -1

// Guardrails are the per-stage safety thresholds evaluated from aggregated
// cohort telemetry. Zero-value semantics differ by field class, and the
// asymmetry is deliberate:
//
//   - Threshold fields (MaxMemPressure, MaxRPSDip, SwapUtilizationLatch)
//     treat zero as "check disabled": there is no meaningful zero bound for
//     a ratio, so an unset field cannot trip.
//   - Count fields (MaxOOMKills, MaxSwapLatched) are budgets whose zero
//     value means "none tolerated": the safe default for a kill counter is
//     zero tolerance, not no check. Disable a count check explicitly with a
//     negative value (Unlimited).
//
// A Config carries one fleet-wide default bundle plus optional per-device-
// class overrides (Config.DeviceGuardrails); an override replaces the
// default bundle wholesale for its class — fields are not merged.
type Guardrails struct {
	// MaxMemPressure bounds the cohort's mean windowed memory
	// some-pressure (the PSI overshoot guardrail). Zero disables.
	MaxMemPressure float64
	// MaxRPSDip bounds the cohort's throughput dip relative to the control
	// cohort: the guardrail trips when treated RPS falls below
	// (1 − MaxRPSDip) × control RPS (both baseline-normalized per host).
	// Zero disables.
	MaxRPSDip float64
	// MaxOOMKills bounds OOM kills within the cohort per stage. Zero means
	// none tolerated; Unlimited disables.
	MaxOOMKills int64
	// SwapUtilizationLatch is the swap-backend utilization at which a host
	// latches swap exhaustion; the latch is sticky for the host's life.
	// Zero disables latching.
	SwapUtilizationLatch float64
	// MaxSwapLatched bounds how many latched hosts a cohort tolerates per
	// stage. Zero means none tolerated; Unlimited disables.
	MaxSwapLatched int
}

// DefaultGuardrails returns production-shaped thresholds: pressure well
// above Senpai's ConfigA operating point (~0.1% memory-some) but far below a
// regressing host, a 10% throughput budget, and zero tolerance for OOM kills
// or swap exhaustion.
func DefaultGuardrails() Guardrails {
	return Guardrails{
		MaxMemPressure:       0.005,
		MaxRPSDip:            0.10,
		MaxOOMKills:          0,
		SwapUtilizationLatch: 0.95,
		MaxSwapLatched:       0,
	}
}

// CohortStats is one cohort's aggregated telemetry — the inputs the
// guardrails judge. The rollout controller produces one per device class
// per candidate at every barrier, plus a candidate-wide aggregate.
type CohortStats struct {
	// Device is the fleet.Spec device class the cohort covers; empty for a
	// candidate-wide aggregate.
	Device string
	// Hosts is how many treated hosts contributed samples.
	Hosts int
	// MemPressure is the mean windowed memory some-pressure.
	MemPressure float64
	// RPSRatio is treated throughput over control-cohort throughput, each
	// host normalized by its own pre-rollout baseline first. Control is
	// device-matched when the control cohort has hosts of the same class,
	// fleet-wide otherwise.
	RPSRatio float64
	// OOMKills counts the cohort's OOM kills during the stage.
	OOMKills int64
	// SwapLatched counts cohort hosts whose swap-exhaustion latch is set.
	SwapLatched int
}

// Check evaluates the guardrails over s. It returns the name of the first
// violated guardrail in severity order ("oom", "psi", "rps", "swap") with a
// human-readable detail, or "" when every guardrail holds. With no
// contributing hosts there is no evidence either way and the check passes.
func (g Guardrails) Check(s CohortStats) (guardrail, detail string) {
	if s.Hosts == 0 {
		return "", ""
	}
	if g.MaxOOMKills >= 0 && s.OOMKills > g.MaxOOMKills {
		return "oom", fmt.Sprintf("%d OOM kills in cohort (max %d)", s.OOMKills, g.MaxOOMKills)
	}
	if g.MaxMemPressure > 0 && s.MemPressure > g.MaxMemPressure {
		return "psi", fmt.Sprintf("mean mem-some pressure %.4f over %.4f", s.MemPressure, g.MaxMemPressure)
	}
	if g.MaxRPSDip > 0 && s.RPSRatio < 1-g.MaxRPSDip {
		return "rps", fmt.Sprintf("throughput ratio %.3f below %.3f", s.RPSRatio, 1-g.MaxRPSDip)
	}
	if g.MaxSwapLatched >= 0 && s.SwapLatched > g.MaxSwapLatched {
		return "swap", fmt.Sprintf("%d hosts latched swap exhaustion (max %d)", s.SwapLatched, g.MaxSwapLatched)
	}
	return "", ""
}
