package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/rollout"
	"tmo/internal/senpai"
	"tmo/internal/twin"
	"tmo/internal/vclock"
)

// TwinScaleResult is the two-fidelity fleet engine's scale scorecard:
// calibrate analytical twins from full simulations, gate them against
// held-out full runs, then race candidates over a 100k-host fleet whose
// long tail runs as twins.
type TwinScaleResult struct {
	// Hosts is the fleet population; FullHosts/TwinHosts split it by
	// fidelity.
	Hosts     int
	FullHosts int
	TwinHosts int
	// Surfaces is how many (device class, mode) response surfaces the
	// calibration fitted.
	Surfaces int
	// Fidelity is the twin-vs-full drift gate over held-out policies.
	Fidelity twin.FidelityReport
	// Rollout is the guardrail-judged, bandit-raced campaign: the safe
	// candidate must be promoted and the aggressive one dropped.
	Rollout rollout.Result
	// Coeffs is the calibration artifact (exportable via WriteJSON).
	Coeffs *twin.CoefficientSet
	// CalibWall/GateWall/RolloutWall are real elapsed times — the scale
	// claim is that RolloutWall stays comparable to a few-hundred-host
	// full-fidelity run despite the 100k population.
	CalibWall   time.Duration
	GateWall    time.Duration
	RolloutWall time.Duration
}

// twinScaleFleet builds the scorecard population: two device classes in
// pair-alternation (decoupled from candidate round-robin parity), each
// class carrying the app its calibration representative ran.
func twinScaleFleet(n int, scale float64, seed uint64) []fleet.Spec {
	specs := make([]fleet.Spec, n)
	for i := range specs {
		app, dev := "web", "C"
		if i%4 >= 2 {
			app, dev = "cache-a", "F"
		}
		specs[i] = fleet.Spec{App: app, Device: dev, Mode: core.ModeZswap, Scale: scale, Seed: seed + uint64(i)*131}
	}
	return specs
}

// twinScale runs the scorecard over an n-host fleet. TwinScaleScorecard
// fixes n at 100k; the regression test uses a reduced population.
func twinScale(c Config, n int) TwinScaleResult {
	scale := 0.3
	window := 30 * vclock.Second
	warm, settle, measure := 4, 4, 6
	replicas := 3
	if c.Quick {
		warm, settle, measure = 2, 2, 4
		replicas = 2
	}

	baseline, safeCand, hotCand := scorecardPolicies()

	calSpecs := []fleet.Spec{
		{App: "web", Device: "C", Scale: scale},
		{App: "cache-a", Device: "F", Scale: scale},
	}
	modes := []core.Mode{core.ModeZswap}

	calStart := time.Now()
	coeffs := twin.Calibrate(twin.CalibrateConfig{
		Specs:          calSpecs,
		Modes:          modes,
		Baseline:       baseline,
		Probes:         append(twin.DefaultProbes(baseline), safeCand, hotCand),
		Window:         window,
		WarmWindows:    warm,
		SettleWindows:  settle,
		MeasureWindows: measure,
		Replicas:       replicas,
		Seed:           c.Seed + 77,
	})
	calWall := time.Since(calStart)

	// The gate probes between calibration rungs — where interpolation is
	// actually tested — with seeds disjoint from the fitting runs.
	holdA := senpai.ConfigA()
	holdA.ReclaimRatio = senpai.ConfigA().ReclaimRatio * 20
	gateStart := time.Now()
	fid := twin.CheckFidelity(coeffs, twin.FidelityConfig{
		Specs:          calSpecs,
		Modes:          modes,
		Baseline:       baseline,
		Probes:         []senpai.Config{safeCand, holdA},
		Window:         window,
		WarmWindows:    warm,
		SettleWindows:  settle,
		MeasureWindows: measure,
		Replicas:       replicas,
		Seed:           c.Seed + 501,
	})
	gateWall := time.Since(gateStart)

	// The campaign: a safe and a deliberately unsafe candidate raced over
	// disjoint cohorts. The PSI budget sits between the safe cohorts'
	// steady state (~0.0004) and the hot cohorts' (~0.002-0.006 across
	// classes, EWMA-lagged), so the hot candidate trips out of both device
	// classes during the canary bake and the safe one is promoted
	// fleet-wide.
	cfg := rollout.Config{
		Hosts:    twinScaleFleet(n, scale, c.Seed+5000),
		Baseline: rollout.Policy{Name: "baseline", Mode: core.ModeZswap, Config: baseline},
		Candidates: []rollout.Policy{
			{Name: "safe", Mode: core.ModeZswap, Config: safeCand},
			{Name: "hot", Mode: core.ModeZswap, Config: hotCand},
		},
		Plan: []rollout.Stage{
			{Name: "canary", Frac: 0.05, Bake: 6},
			{Name: "fleet", Frac: 0.9, Bake: 4},
		},
		Guardrails: rollout.Guardrails{
			MaxMemPressure:       0.0012,
			MaxRPSDip:            0.25,
			MaxOOMKills:          0,
			SwapUtilizationLatch: 0.95,
			MaxSwapLatched:       0,
		},
		Window:      window,
		WarmWindows: 2,
		Workers:     runtime.NumCPU(),
		Seed:        c.Seed + 13,
		Twin:        &rollout.TwinConfig{Coeffs: coeffs},
	}
	rollStart := time.Now()
	r := rollout.New(cfg).Run()
	rollWall := time.Since(rollStart)

	return TwinScaleResult{
		Hosts:       n,
		FullHosts:   r.FullHosts,
		TwinHosts:   r.TwinHosts,
		Surfaces:    len(coeffs.Surfaces),
		Fidelity:    fid,
		Rollout:     r,
		Coeffs:      coeffs,
		CalibWall:   calWall,
		GateWall:    gateWall,
		RolloutWall: rollWall,
	}
}

// TwinScaleScorecard runs the two-fidelity fleet engine end to end at the
// scale the subsystem exists for: calibrate per-(device class, mode)
// response surfaces from full simulations, gate the twins against held-out
// full runs, then drive a guardrail-judged two-candidate race over a
// 100,000-host fleet whose long tail advances in O(1) per window. TMO's
// rollout verdicts are only as trustworthy as the population they were
// judged on (§5 deploys over millions of hosts); this scorecard shows the
// control plane reaching that regime on a laptop-class wall-clock budget.
// Quick mode shrinks calibration geometry but keeps the 100k-host fleet —
// the scale claim is the point.
func TwinScaleScorecard(c Config) TwinScaleResult {
	return twinScale(c, 100_000)
}

// Claims states what the scorecard pins: the calibration passes its own
// fidelity gate, twins carry most of the fleet, and the guardrails judged
// on twin-majority cohorts drop the hot candidate and promote the safe one.
func (r TwinScaleResult) Claims() []Claim {
	return []Claim{
		check("fidelity gate passes", r.Fidelity.Pass()),
		check("twins outnumber full anchors", r.FullHosts > 0 && r.TwinHosts > r.FullHosts),
		check("rollout completed on safe", r.Rollout.Completed() && r.Rollout.Promoted == "safe"),
		check("hot candidate dropped", r.Rollout.Candidates[1].Dropped), // candidates: safe, hot
	}
}

// Render reports calibration, the fidelity gate, and the scaled campaign.
func (r TwinScaleResult) Render() string {
	var b strings.Builder
	b.WriteString("Twin-scale scorecard: two-fidelity fleet engine at 100k hosts (ROADMAP scale item)\n\n")
	fmt.Fprintf(&b, "calibration: %d response surfaces fitted from full-fidelity runs in %.1fs\n",
		r.Surfaces, r.CalibWall.Seconds())
	gate := "PASS"
	if !r.Fidelity.Pass() {
		gate = "FAIL"
	}
	fmt.Fprintf(&b, "fidelity gate (%.1fs): %s\n", r.GateWall.Seconds(), gate)
	b.WriteString(indent(r.Fidelity.String()))
	fmt.Fprintf(&b, "\nrollout over %d hosts (%d full anchors / %d twins) in %.1fs wall: %s\n",
		r.Hosts, r.FullHosts, r.TwinHosts, r.RolloutWall.Seconds(), verdictLine(r.Rollout))
	b.WriteString(indent(r.Rollout.Render()))
	return b.String()
}
