package main

import (
	"fmt"
	"hash/fnv"
	"time"

	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/rollout"
	"tmo/internal/senpai"
	"tmo/internal/tsdb"
	"tmo/internal/twin"
	"tmo/internal/vclock"
)

// The campaign reuses the geometry of experiments.TwinScaleScorecard — web
// on SSD class C and cache-a on class F at footprint scale 0.3, a safe and a
// hot candidate — with the scorecard's full (not quick) calibration.
const (
	campaignScale   = 0.3
	campaignWindow  = 30 * vclock.Second
	campaignWorkers = 2
	calWarm         = 4
	calSettle       = 4
	calMeasure      = 6
	calReplicas     = 3
)

// campaignPlan is canary 2% → stage-2 20% → fleet 90%, each baking six
// windows. The last tenth of the fleet stays on the baseline, so the final
// stage is still judged against a control cohort.
var campaignPlan = []rollout.Stage{
	{Name: "canary", Frac: 0.02, Bake: 6},
	{Name: "stage-2", Frac: 0.20, Bake: 6},
	{Name: "fleet", Frac: 0.90, Bake: 6},
}

// campaignPolicies returns the idle baseline, the safe candidate, and the
// hot candidate whose pressure must trip the guardrails at canary.
func campaignPolicies() (baseline, safe, hot senpai.Config) {
	baseline = senpai.ConfigA()
	baseline.ReclaimRatio = 0
	safe = senpai.ConfigA()
	safe.ReclaimRatio = 0.005
	hot = safe
	hot.ReclaimRatio *= 12
	hot.MemPressureThreshold *= 50
	hot.IOPressureThreshold *= 10
	hot.MaxProbeFrac *= 5
	return baseline, safe, hot
}

// campaignFleet alternates the two device classes in pairs, so class and
// candidate round-robin parity stay decoupled.
func campaignFleet(n int, seed uint64) []fleet.Spec {
	specs := make([]fleet.Spec, n)
	for i := range specs {
		app, dev := "web", "C"
		if i%4 >= 2 {
			app, dev = "cache-a", "F"
		}
		specs[i] = fleet.Spec{App: app, Device: dev, Mode: core.ModeZswap, Scale: campaignScale, Seed: seed + uint64(i)*131}
	}
	return specs
}

// runCampaign calibrates the twins and gates them against held-out full
// simulations (the set-up), then runs the guardrail-judged race over a
// fleet of the given size with the observability plane attached.
func runCampaign(hosts int, seed uint64, sp *spans) rep {
	r := newRep()
	baseline, safe, hot := campaignPolicies()
	specs := []fleet.Spec{
		{App: "web", Device: "C", Scale: campaignScale},
		{App: "cache-a", Device: "F", Scale: campaignScale},
	}
	modes := []core.Mode{core.ModeZswap}

	end := sp.begin("calibrate")
	start := time.Now()
	coeffs := twin.Calibrate(twin.CalibrateConfig{
		Specs:          specs,
		Modes:          modes,
		Baseline:       baseline,
		Probes:         append(twin.DefaultProbes(baseline), safe, hot),
		Window:         campaignWindow,
		WarmWindows:    calWarm,
		SettleWindows:  calSettle,
		MeasureWindows: calMeasure,
		Replicas:       calReplicas,
		Workers:        campaignWorkers,
		Seed:           seed + 77,
	})
	calib := time.Since(start)
	end()

	// The gate checks the safe candidate and a holdout between calibration
	// rungs (15x Config A's reclaim ratio, between the 10x and 40x rungs),
	// on seeds disjoint from the fitting runs.
	holdout := senpai.ConfigA()
	holdout.ReclaimRatio *= 15
	end = sp.begin("gate")
	start = time.Now()
	fid := twin.CheckFidelity(coeffs, twin.FidelityConfig{
		Specs:          specs,
		Modes:          modes,
		Baseline:       baseline,
		Probes:         []senpai.Config{safe, holdout},
		Window:         campaignWindow,
		WarmWindows:    calWarm,
		SettleWindows:  calSettle,
		MeasureWindows: calMeasure,
		Replicas:       calReplicas,
		Seed:           seed + 501,
	})
	gate := time.Since(start)
	end()
	r.setup = calib + gate
	r.samples["twin.calibrate_s"] = []float64{calib.Seconds()}
	r.samples["twin.gate_s"] = []float64{gate.Seconds()}

	db := tsdb.New(tsdb.Config{})
	cfg := rollout.Config{
		Hosts:    campaignFleet(hosts, seed+5000),
		Baseline: rollout.Policy{Name: "baseline", Mode: core.ModeZswap, Config: baseline},
		Candidates: []rollout.Policy{
			{Name: "safe", Mode: core.ModeZswap, Config: safe},
			{Name: "hot", Mode: core.ModeZswap, Config: hot},
		},
		Plan: campaignPlan,
		Guardrails: rollout.Guardrails{
			MaxMemPressure:       0.0012,
			MaxRPSDip:            0.25,
			SwapUtilizationLatch: 0.95,
		},
		Window:      campaignWindow,
		WarmWindows: 2,
		Workers:     campaignWorkers,
		Seed:        seed + 13,
		Obs:         &rollout.ObsConfig{DB: db},
		Twin:        &rollout.TwinConfig{Coeffs: coeffs},
	}
	end = sp.begin("rollout")
	start = time.Now()
	ctl := rollout.New(cfg)
	res := ctl.Run()
	r.work = time.Since(start)
	end()

	end = sp.begin("check")
	defer end()
	var errs []string
	if !fid.Pass() {
		errs = append(errs, fmt.Sprintf("fidelity gate failed: %v", fid.Failures()))
	}
	if !res.Completed() || res.Promoted != "safe" {
		errs = append(errs, fmt.Sprintf("campaign ended %s promoting %q, want safe promoted", res.State, res.Promoted))
	}
	if len(res.Candidates) != 2 || !res.Candidates[1].Dropped {
		errs = append(errs, "hot candidate was not dropped")
	}
	final, ok := promotedStage(res)
	if !ok {
		errs = append(errs, "no final-stage report for the promoted candidate")
	} else if final.Stats.OOMKills > 0 {
		errs = append(errs, fmt.Sprintf("%d OOM kills in the promoted cohort", final.Stats.OOMKills))
	}
	r.op("campaign", errs)

	r.outcome = map[string]float64{
		"savings_pct": 100 * final.SavingsFrac,
		"mem_psi_pct": 100 * final.Stats.MemPressure,
		"rps_ratio":   final.Stats.RPSRatio,
	}
	snap := ctl.Telemetry().Snapshot()
	windows := float64(res.Duration / res.Window)
	r.counts = map[string]float64{
		"rollout.windows":         windows,
		"rollout.host_windows":    windows * float64(hosts),
		"rollout.guardrail_trips": sumMetric(snap, "rollout.guardrail_trips", ""),
		"rollout.candidate_drops": sumMetric(snap, "rollout.candidate_drops", ""),
		"slo.burn_alerts":         sumMetric(snap, "slo.burn_alerts", ""),
		"tsdb.series":             float64(db.NumSeries()),
		"tsdb.samples":            float64(db.NumSamples()),
	}

	h := fnv.New64a()
	fmt.Fprint(h, fid.String(), res.EventLog(), res.Render())
	hashSnapshot(h, snap)
	if err := db.WriteJSONL(h); err != nil {
		r.fail("digest: " + err.Error())
	}
	r.digest = h.Sum64()
	return r
}

// promotedStage returns the promoted candidate's report from the final
// stage verdict.
func promotedStage(res rollout.Result) (rollout.CandidateStageReport, bool) {
	if len(res.Stages) == 0 {
		return rollout.CandidateStageReport{}, false
	}
	for _, c := range res.Stages[len(res.Stages)-1].Candidates {
		if c.Policy == res.Promoted {
			return c, true
		}
	}
	return rollout.CandidateStageReport{}, false
}
