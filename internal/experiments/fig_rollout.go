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

// scorecardPolicies are the Senpai configurations the control-plane
// scorecards (rollout, policy, twinscale) stage. idle is Config A with
// reclaim off: as the baseline it leaves offloading idle, so stage savings
// measure candidates against untouched control hosts. safe keeps Config
// A's pressure threshold and probe cap, boosted only in convergence speed
// so experiment-scale windows see it act (the same compression fleetsim
// applies). hot is Config B's shape taken to where it is unambiguously
// unsafe: far higher pressure tolerance and a probe cap five times
// production, so its cohort settles above the PSI guardrail instead of
// being rescued by Config A's conservative cap.
func scorecardPolicies() (idle, safe, hot senpai.Config) {
	idle = senpai.ConfigA()
	idle.ReclaimRatio = 0
	safe = senpai.ConfigA()
	safe.ReclaimRatio = 0.005
	hot = safe
	hot.ReclaimRatio *= 12
	hot.MemPressureThreshold *= 50
	hot.IOPressureThreshold *= 10
	hot.MaxProbeFrac *= 5
	return idle, safe, hot
}

// scorecardFleet builds an n-host population cycling the scorecard apps
// (and the given device classes, if any), host i seeded seed+i·stride
// past the experiment's seed.
func scorecardFleet(c Config, n int, seed, stride uint64, devices []string) []fleet.Spec {
	apps := []string{"feed", "cache-a", "ads-b", "web", "analytics", "cache-b"}
	specs := make([]fleet.Spec, n)
	for i := range specs {
		specs[i] = fleet.Spec{
			App:   apps[i%len(apps)],
			Mode:  core.ModeZswap,
			Scale: c.scale(),
			Seed:  c.Seed + seed + uint64(i)*stride,
		}
		if len(devices) > 0 {
			specs[i].Device = devices[i%len(devices)]
		}
	}
	return specs
}

// scorecardRollout is the rollout the rollout and policy scorecards share
// before hosts, candidates, seed and churn are added: the idle zswap
// baseline, a canary → stage-2 → fleet plan, the fleet-wide guardrails,
// and the window, warm-up and bake at the experiment's scale.
func scorecardRollout(c Config) rollout.Config {
	idle, _, _ := scorecardPolicies()
	bake, warm := 4, 4
	if c.Quick {
		bake, warm = 3, 2
	}
	return rollout.Config{
		Baseline: rollout.Policy{Name: "baseline", Mode: core.ModeZswap, Config: idle},
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
		Window:      c.dur(vclock.Minute, 30*vclock.Second),
		WarmWindows: warm,
	}
}

// tailCrash knocks the fleet's last host (never in a canary cohort) out
// for one window, starting after the given number of windows.
func tailCrash(cfg rollout.Config, after int) []rollout.Crash {
	return []rollout.Crash{{
		Host:     len(cfg.Hosts) - 1,
		Schedule: chaos.Schedule{At: vclock.Time(0).Add(vclock.Duration(after) * cfg.Window), Dur: cfg.Window},
	}}
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
	_, safeCand, aggrCand := scorecardPolicies()
	base := scorecardRollout(c)
	base.Hosts = scorecardFleet(c, n, 2000, 131, nil)
	base.Seed = c.Seed + 9
	// The tail host goes down as the canary starts baking; it must rejoin
	// with its cohort's current configuration before either rollout ends —
	// including the aggressive one, which rolls back early — without
	// perturbing the event log's determinism.
	base.Crashes = tailCrash(base, base.WarmWindows)

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
