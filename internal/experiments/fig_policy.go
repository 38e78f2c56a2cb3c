package experiments

import (
	"fmt"
	"slices"
	"strings"

	"tmo/internal/chaos"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/rollout"
	"tmo/internal/senpai"
	"tmo/internal/vclock"
)

// PolicyResult carries the three policy-artifact rollouts of the scorecard.
type PolicyResult struct {
	// ModeChange stages a zswap → tiered policy; it must complete by
	// rebuilding hosts at stage barriers with zero OOM kills.
	ModeChange rollout.Result
	// DeviceSplit stages an aggressive policy over a mixed-device fleet
	// with strict guardrails on the slow F/G classes; those cohorts must
	// trip and revert while the A–C cohorts carry the policy to completion.
	DeviceSplit rollout.Result
	// Bandit races three candidate policies; the hot one must drop on the
	// PSI guardrail and the best survivor must be promoted fleet-wide.
	Bandit rollout.Result
}

// policyFleet builds a population with the given device-class cycle.
func policyFleet(c Config, n int, devices []string) []fleet.Spec {
	apps := []string{"feed", "cache-a", "ads-b", "web", "analytics", "cache-b"}
	specs := make([]fleet.Spec, n)
	for i := range specs {
		specs[i] = fleet.Spec{
			App:   apps[i%len(apps)],
			Mode:  core.ModeZswap,
			Scale: c.scale(),
			Seed:  c.Seed + 4000 + uint64(i)*173,
		}
		if len(devices) > 0 {
			specs[i].Device = devices[i%len(devices)]
		}
	}
	return specs
}

// policyConfigs builds the scorecard's three control-plane configurations.
func policyConfigs(c Config) (modeChange, deviceSplit, bandit rollout.Config) {
	idle := senpai.ConfigA()
	idle.ReclaimRatio = 0
	baseline := rollout.Policy{Name: "baseline", Mode: core.ModeZswap, Config: idle}

	safe := senpai.ConfigA()
	safe.ReclaimRatio = 0.005

	aggr := safe
	aggr.ReclaimRatio *= 12
	aggr.MemPressureThreshold *= 50
	aggr.IOPressureThreshold *= 10
	aggr.MaxProbeFrac *= 5

	window := c.dur(vclock.Minute, 30*vclock.Second)
	bake, warm := 4, 4
	if c.Quick {
		bake, warm = 3, 2
	}
	n := 12
	if c.Quick {
		n = 6
	}
	plan := []rollout.Stage{
		{Name: "canary", Frac: 0.2, Bake: bake},
		{Name: "stage-2", Frac: 0.6, Bake: bake},
		{Name: "fleet", Frac: 1.0, Bake: bake},
	}
	guardrails := rollout.Guardrails{
		MaxMemPressure:       0.005,
		MaxRPSDip:            0.25,
		MaxOOMKills:          0,
		SwapUtilizationLatch: 0.95,
		MaxSwapLatched:       0,
	}

	// §5's mode migration as a staged rollout: the policy changes what the
	// host runs (zswap → tiered), so every push rebuilds through the
	// crash/rejoin path at a stage barrier. Churn a tail host mid-rollout
	// to keep the determinism pin honest across rebuild and rejoin.
	modeChange = rollout.Config{
		Hosts:       policyFleet(c, n, nil),
		Baseline:    baseline,
		Candidates:  []rollout.Policy{{Name: "tiered", Mode: core.ModeTiered, Config: safe}},
		Plan:        plan,
		Guardrails:  guardrails,
		Window:      window,
		WarmWindows: warm,
		Seed:        c.Seed + 11,
		Crashes: []rollout.Crash{{
			Host:     n - 1,
			Schedule: chaos.Schedule{At: vclock.Time(0).Add(vclock.Duration(warm) * window), Dur: window},
		}},
	}

	// §4.2's device heterogeneity as guardrail policy: the old F/G SSD
	// classes cannot absorb what the fast classes can, so their cohorts
	// carry much stricter PSI limits. The aggressive policy trips them —
	// and only them.
	lax := rollout.Guardrails{MaxMemPressure: 0.9, MaxOOMKills: rollout.Unlimited, MaxSwapLatched: rollout.Unlimited}
	strict := guardrails
	// An order of magnitude under the fleet-wide PSI limit: the slow
	// classes must reject the aggressive policy within their first bake.
	strict.MaxMemPressure = 0.0005
	deviceSplit = rollout.Config{
		Hosts:      policyFleet(c, n, []string{"A", "B", "C", "F", "G", "C"}),
		Baseline:   baseline,
		Candidates: []rollout.Policy{{Name: "candidate", Mode: core.ModeZswap, Config: aggr}},
		Plan:       plan,
		Guardrails: lax,
		DeviceGuardrails: map[string]rollout.Guardrails{
			"F": strict,
			"G": strict,
		},
		Window:      window,
		WarmWindows: warm,
		Seed:        c.Seed + 13,
	}

	// §4.4's tuning question as a bandit race: three candidates on disjoint
	// cohorts; the hot Config-B shape must drop on the PSI guardrail and
	// the stronger of the two safe shapes must win promotion on savings.
	mild := safe
	mild.ReclaimRatio = 0.002
	bandit = rollout.Config{
		Hosts:    policyFleet(c, n, nil),
		Baseline: baseline,
		Candidates: []rollout.Policy{
			{Name: "cand-mild", Mode: core.ModeZswap, Config: mild},
			{Name: "cand-strong", Mode: core.ModeZswap, Config: safe},
			{Name: "cand-hot", Mode: core.ModeZswap, Config: aggr},
		},
		Plan: []rollout.Stage{
			{Name: "race", Frac: 0.5, Bake: bake},
			{Name: "fleet", Frac: 1.0, Bake: bake},
		},
		Guardrails:  guardrails,
		Window:      window,
		WarmWindows: warm,
		Seed:        c.Seed + 17,
		Crashes: []rollout.Crash{{
			Host:     n - 1,
			Schedule: chaos.Schedule{At: vclock.Time(0).Add(vclock.Duration(warm+1) * window), Dur: window},
		}},
	}
	return modeChange, deviceSplit, bandit
}

// PolicyScorecard exercises the policy-artifact control plane end to end:
// a mode-changing rollout (pushes rebuild hosts), per-device-class
// guardrails (slow-SSD cohorts revert, fast ones proceed), and a
// K-candidate bandit race (drop the unsafe policy, promote the best
// survivor). Together they are the control-plane story of §5 over the
// device heterogeneity of §4.2 and the tuning trade of §4.4.
func PolicyScorecard(c Config) PolicyResult {
	mc, ds, bd := policyConfigs(c)
	return PolicyResult{
		ModeChange:  rollout.New(mc).Run(),
		DeviceSplit: rollout.New(ds).Run(),
		Bandit:      rollout.New(bd).Run(),
	}
}

// Claims states what the scorecard pins: the mode change completes through
// a rebuild of every host, strict per-device guardrails exclude exactly the
// slow F/G cohorts while the rest complete, and the bandit race drops only
// the hot candidate, on PSI, and promotes the best survivor.
func (r PolicyResult) Claims() []Claim {
	split, race := r.DeviceSplit.Candidates[0], r.Bandit.Candidates // mild, strong, hot
	return []Claim{
		check("mode change completed on tiered", r.ModeChange.Completed() && r.ModeChange.Promoted == "tiered"),
		atLeast("mode change rebuilt every host", float64(r.ModeChange.Rebuilds()), float64(len(r.ModeChange.Hosts))),
		check("device split completed", r.DeviceSplit.Completed()),
		check("device split excluded exactly F and G", !split.Dropped && slices.Equal(split.ExcludedDevices, []string{"F", "G"})),
		check("bandit dropped only cand-hot, on psi", !race[0].Dropped && !race[1].Dropped && race[2].Dropped && race[2].Tripped == "psi"),
		check("bandit completed on cand-strong", r.Bandit.Completed() && r.Bandit.Promoted == "cand-strong"),
	}
}

// Render reports the three rollouts with their stage tables.
func (r PolicyResult) Render() string {
	var b strings.Builder
	b.WriteString("Policy scorecard: mode rollout, per-device guardrails, bandit race (§4.2, §4.4, §5)\n\n")
	fmt.Fprintf(&b, "mode change (zswap -> tiered): %s, %d host rebuilds\n",
		verdictLine(r.ModeChange), r.ModeChange.Rebuilds())
	b.WriteString(indent(r.ModeChange.Render()))
	fmt.Fprintf(&b, "\ndevice split (strict F/G guardrails): %s, excluded %v\n",
		verdictLine(r.DeviceSplit), r.DeviceSplit.Candidates[0].ExcludedDevices)
	b.WriteString(indent(r.DeviceSplit.Render()))
	fmt.Fprintf(&b, "\nbandit race (3 candidates): %s, promoted %q\n",
		verdictLine(r.Bandit), r.Bandit.Promoted)
	b.WriteString(indent(r.Bandit.Render()))
	return b.String()
}
