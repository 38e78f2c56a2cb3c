package experiments

import (
	"fmt"
	"slices"
	"strings"

	"tmo/internal/core"
	"tmo/internal/rollout"
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

// policyConfigs builds the scorecard's three control-plane configurations.
func policyConfigs(c Config) (modeChange, deviceSplit, bandit rollout.Config) {
	_, safe, aggr := scorecardPolicies()
	shell := scorecardRollout(c)
	n := 12
	if c.Quick {
		n = 6
	}

	// §5's mode migration as a staged rollout: the policy changes what the
	// host runs (zswap → tiered), so every push rebuilds through the
	// crash/rejoin path at a stage barrier. Churn a tail host mid-rollout
	// to keep the determinism pin honest across rebuild and rejoin.
	modeChange = shell
	modeChange.Hosts = scorecardFleet(c, n, 4000, 173, nil)
	modeChange.Candidates = []rollout.Policy{{Name: "tiered", Mode: core.ModeTiered, Config: safe}}
	modeChange.Seed = c.Seed + 11
	modeChange.Crashes = tailCrash(modeChange, shell.WarmWindows)

	// §4.2's device heterogeneity as guardrail policy: the old F/G SSD
	// classes cannot absorb what the fast classes can, so their cohorts
	// carry much stricter PSI limits. The aggressive policy trips them —
	// and only them.
	strict := shell.Guardrails
	// An order of magnitude under the fleet-wide PSI limit: the slow
	// classes must reject the aggressive policy within their first bake.
	strict.MaxMemPressure = 0.0005
	deviceSplit = shell
	deviceSplit.Hosts = scorecardFleet(c, n, 4000, 173, []string{"A", "B", "C", "F", "G", "C"})
	deviceSplit.Candidates = []rollout.Policy{{Name: "candidate", Mode: core.ModeZswap, Config: aggr}}
	deviceSplit.Guardrails = rollout.Guardrails{MaxMemPressure: 0.9, MaxOOMKills: rollout.Unlimited, MaxSwapLatched: rollout.Unlimited}
	deviceSplit.DeviceGuardrails = map[string]rollout.Guardrails{"F": strict, "G": strict}
	deviceSplit.Seed = c.Seed + 13

	// §4.4's tuning question as a bandit race: three candidates on disjoint
	// cohorts; the hot Config-B shape must drop on the PSI guardrail and
	// the stronger of the two safe shapes must win promotion on savings.
	mild := safe
	mild.ReclaimRatio = 0.002
	bake := shell.Plan[0].Bake
	bandit = shell
	bandit.Hosts = scorecardFleet(c, n, 4000, 173, nil)
	bandit.Candidates = []rollout.Policy{
		{Name: "cand-mild", Mode: core.ModeZswap, Config: mild},
		{Name: "cand-strong", Mode: core.ModeZswap, Config: safe},
		{Name: "cand-hot", Mode: core.ModeZswap, Config: aggr},
	}
	bandit.Plan = []rollout.Stage{
		{Name: "race", Frac: 0.5, Bake: bake},
		{Name: "fleet", Frac: 1.0, Bake: bake},
	}
	bandit.Seed = c.Seed + 17
	bandit.Crashes = tailCrash(bandit, shell.WarmWindows+1)
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
