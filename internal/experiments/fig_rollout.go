package experiments

import (
	"fmt"
	"strings"

	"tmo/internal/chaos"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/rollout"
	"tmo/internal/senpai"
	"tmo/internal/trace"
	"tmo/internal/tsdb"
	"tmo/internal/vclock"
)

// RolloutResult carries the two staged rollouts of the scorecard.
type RolloutResult struct {
	// Safe is the production-shaped candidate's rollout; it must complete.
	Safe rollout.Result
	// Aggressive is the Config-B-shaped candidate's rollout; it must roll
	// back at the canary stage on the PSI guardrail.
	Aggressive rollout.Result
	// BurnAlerts counts SLO burn-rate alerts the observability plane raised
	// during the aggressive run before (or as) the guardrail tripped.
	BurnAlerts int
	// FlightBundles counts the post-mortem bundles the controller
	// dumped for the aggressive run's tripped cohort.
	FlightBundles int
}

// rolloutConfigs builds the scorecard's two control-plane configurations.
// They share the fleet, plan, guardrails, and churn schedule; only the
// candidate differs. Both runs crash a non-canary host mid-rollout to
// exercise lifecycle handling under the determinism pin.
func rolloutConfigs(c Config) (safe, aggressive rollout.Config) {
	n := 12
	if c.Quick {
		n = 5
	}
	apps := []string{"feed", "cache-a", "ads-b", "web", "analytics", "cache-b"}
	specs := make([]fleet.Spec, n)
	for i := range specs {
		specs[i] = fleet.Spec{
			App:   apps[i%len(apps)],
			Mode:  core.ModeZswap,
			Scale: c.scale(),
			Seed:  c.Seed + 2000 + uint64(i)*131,
		}
	}

	// The baseline leaves offloading idle so stage savings measure the
	// candidate against untouched control hosts.
	baseline := senpai.ConfigA()
	baseline.ReclaimRatio = 0

	// The safe candidate keeps Config A's pressure threshold and probe cap,
	// boosted only in convergence speed so experiment-scale windows see it
	// act (the same compression fleetsim applies).
	safeCand := senpai.ConfigA()
	safeCand.ReclaimRatio = 0.005

	// The aggressive candidate is Config B's shape taken to where it is
	// unambiguously unsafe: far higher pressure tolerance and a probe cap
	// five times production, so the treated cohort settles above the PSI
	// guardrail instead of being rescued by Config A's conservative cap.
	aggrCand := safeCand
	aggrCand.ReclaimRatio *= 12
	aggrCand.MemPressureThreshold *= 50
	aggrCand.IOPressureThreshold *= 10
	aggrCand.MaxProbeFrac *= 5

	window := c.dur(vclock.Minute, 30*vclock.Second)
	bake := 4
	warm := 4
	if c.Quick {
		bake, warm = 3, 2
	}
	base := rollout.Config{
		Hosts:    specs,
		Baseline: rollout.Policy{Name: "baseline", Mode: core.ModeZswap, Config: baseline},
		Plan: []rollout.Stage{
			{Name: "canary", Frac: 0.2, Bake: bake},
			{Name: "stage-2", Frac: 0.6, Bake: bake},
			{Name: "fleet", Frac: 1.0, Bake: bake},
		},
		Guardrails: rollout.Guardrails{
			MaxMemPressure:       0.005,
			MaxRPSDip:            0.25,
			MaxOOMKills:          0,
			SwapUtilizationLatch: 0.95,
			MaxSwapLatched:       0,
		},
		Window:      window,
		WarmWindows: warm,
		Seed:        c.Seed + 9,
		// Knock out the fleet's last host (never in the canary cohort) for
		// one window as the canary starts baking; it must rejoin with its
		// cohort's current configuration before either rollout ends —
		// including the aggressive one, which rolls back early — without
		// perturbing the event log's determinism.
		Crashes: []rollout.Crash{{
			Host:     n - 1,
			Schedule: chaos.Schedule{At: vclock.Time(0).Add(vclock.Duration(warm) * window), Dur: window},
		}},
	}

	safe = base
	safe.Candidates = []rollout.Policy{{Name: "candidate", Mode: core.ModeZswap, Config: safeCand}}
	aggressive = base
	aggressive.Candidates = []rollout.Policy{{Name: "candidate", Mode: core.ModeZswap, Config: aggrCand}}
	return safe, aggressive
}

// RolloutScorecard reproduces §5's deployment story as a control-plane
// regression scenario: TMO reached Meta's fleet through staged rollouts
// with telemetry guardrails, and §4.4's tuning experiment shows why —
// Config B buys more savings than Config A but regresses latency-sensitive
// services, exactly the configuration a guardrail must catch at the canary
// stage. The scorecard stages two candidates over the same fleet: a
// production-shaped one that must reach 100%, and a Config-B-shaped one
// that must trip the PSI guardrail in canary and roll back before touching
// the wider fleet.
// The aggressive run carries the observability plane so the scorecard can
// also report the forensics side of the story: the SLO burn monitors firing
// ahead of the verdict and the flight bundles shipping post-mortems.
func RolloutScorecard(c Config) RolloutResult {
	safe, aggr := rolloutConfigs(c)
	aggr.Obs = &rollout.ObsConfig{DB: tsdb.New(tsdb.Config{})}
	r := RolloutResult{
		Safe:       rollout.New(safe).Run(),
		Aggressive: rollout.New(aggr).Run(),
	}
	for _, e := range r.Aggressive.Events {
		if e.Cat == trace.KindSLOBurn {
			r.BurnAlerts++
		}
	}
	r.FlightBundles = len(r.Aggressive.Flights)
	return r
}

// Claims states what the scorecard pins: the safe candidate reaches the
// whole fleet; the aggressive one trips the PSI guardrail at the canary
// stage and rolls back with zero OOM kills outside the canary cohort, after
// out-saving the safe canary — the §4.4 trade the guardrail exists to
// refuse.
func (r RolloutResult) Claims() []Claim {
	aggr, last := r.Aggressive, r.Aggressive.Stages[len(r.Aggressive.Stages)-1]
	return []Claim{
		check("safe rollout completed", r.Safe.Completed()),
		check("aggressive rolled back at canary", aggr.State == rollout.StateRolledBack && last.Stage.Name == "canary" && last.Verdict == "rollback"),
		check("aggressive tripped the psi guardrail", aggr.TrippedGuardrail == "psi"),
		check("no OOM kills outside canary", aggr.OOMKillsOutsideCanary() == 0),
		exceeds("aggressive canary out-saved safe canary", last.Candidates[0].SavingsFrac, r.Safe.Stages[0].Candidates[0].SavingsFrac),
	}
}

// Render reports both rollouts with their stage tables.
func (r RolloutResult) Render() string {
	var b strings.Builder
	b.WriteString("Rollout scorecard: staged config deployment with guardrails (§4.4, §5)\n\n")
	fmt.Fprintf(&b, "safe candidate (Config A shape): %s\n", verdictLine(r.Safe))
	b.WriteString(indent(r.Safe.Render()))
	fmt.Fprintf(&b, "\naggressive candidate (Config B shape): %s\n", verdictLine(r.Aggressive))
	b.WriteString(indent(r.Aggressive.Render()))
	fmt.Fprintf(&b, "\nobservability: %d SLO burn alert(s) raised, %d flight bundle(s) dumped for the post-mortem\n",
		r.BurnAlerts, r.FlightBundles)
	return b.String()
}

// verdictLine is the one-line outcome of a rollout.
func verdictLine(r rollout.Result) string {
	if r.Completed() {
		return fmt.Sprintf("reached 100%% of the fleet in %s", r.Duration)
	}
	return fmt.Sprintf("rolled back by the %s guardrail after %s, %d OOM kills outside canary",
		r.TrippedGuardrail, r.Duration, r.OOMKillsOutsideCanary())
}

// indent shifts a multi-line block right for nested report sections.
func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = "  " + l
	}
	return strings.Join(lines, "\n") + "\n"
}
