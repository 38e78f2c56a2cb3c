package experiments

import (
	"fmt"
	"strings"

	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/metrics"
	"tmo/internal/psi"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// ---------------------------------------------------------------------------
// Resilience scorecard: chaos-injected faults vs the Senpai control loop.
//
// TMO's robustness story — PSI feedback absorbs slow devices (Fig. 12),
// wearing devices (§4.2, Fig. 14), load shifts, and noisy neighbours — is
// asserted by the paper but never stressed by the steady-state experiments
// in this repository. This suite injects each fault class with the chaos
// engine against two arms on identical hardware and seeds:
//
//   - senpai: the TMO control loop (PSI-driven proactive reclaim)
//   - baseline: the uncontrolled alternative — static provisioning (a fixed
//     memory.max sized to the same offload depth, the strawman TMO replaces)
//     or, for capacity loss, a host with no offloading at all
//
// and scores recovery: PSI overshoot, time back under the pressure
// threshold, RPS dip depth, and OOM avoidance.

// ResilienceArm is one run's post-fault scorecard.
type ResilienceArm struct {
	Name string
	// Pressure is the workload's windowed memory-some pressure series; RPS
	// its request-rate series.
	Pressure, RPS *metrics.Series
	// PrePressure / PreRPS are means over the window just before the fault.
	PrePressure, PreRPS float64
	// PeakPressure is the worst windowed pressure after injection.
	PeakPressure float64
	// SteadyPressure is the mean pressure over the final stretch of the
	// recovery window — where the run settled.
	SteadyPressure float64
	// RecoveryTime is how long after injection pressure returned below the
	// threshold for good; the full window if it never did.
	RecoveryTime vclock.Duration
	// RPSDipFrac is the deepest post-fault throughput relative to the
	// pre-fault mean (1.0 = no dip).
	RPSDipFrac float64
	// OOMKills counts overcommit events after injection.
	OOMKills int64
	// Recovered reports pressure back under threshold with no OOM kills.
	Recovered bool
}

// ResilienceOutcome compares the two arms for one fault class.
type ResilienceOutcome struct {
	// Name is the fault class ("slow-device", "capacity-loss", ...).
	Name string
	// Script is the injected chaos script.
	Script string
	// Baseline and Senpai are the uncontrolled and controlled arms.
	Baseline, Senpai ResilienceArm
}

// ResilienceResult carries the whole scorecard.
type ResilienceResult struct {
	Outcomes []ResilienceOutcome
	// Threshold is the pressure level an arm must settle below to count as
	// recovered.
	Threshold float64
	// FaultAt and Window are the injection instant and recovery window.
	FaultAt, Window vclock.Duration
}

// resilienceThreshold is the recovered-pressure bar: comfortably above
// Senpai's own operating target (ConfigA holds ~0.1% memory-some) and far
// below what a wedged host sustains.
const resilienceThreshold = 0.01

// resilienceScenario describes one fault class.
type resilienceScenario struct {
	name, app string
	mode      core.Mode
	baseline  string // "static" (fixed memory.max, no controller) or "off"
	// clause is the chaos clause injected at the fault instant; a %d in it
	// takes a quarter of host DRAM, in bytes.
	clause string
}

// staticLimitFrac sizes the static baseline's memory.max relative to the
// app footprint, matching the offload depth Senpai converges to so the two
// arms start from comparable savings.
const staticLimitFrac = 0.65

// resilienceScenarios lists the suite: the four regression-gated classes
// first, then scorecard-only extras.
func resilienceScenarios() []resilienceScenario {
	return []resilienceScenario{
		{"slow-device", "feed", core.ModeSSDSwap, "static", "ssd-slow x8"},
		// 1.75 lifetimes over a 2m ramp: the device crosses its rated pTBW
		// mid-run and IO latency degrades ~5.5x.
		{"wear-out", "feed", core.ModeSSDSwap, "static", "ssd-wear 1.75 ramp=2m"},
		{"load-surge", "cache-b", core.ModeZswap, "static", "load x2.5"},
		// x0.42 drops host DRAM below feed's anon residency: without swap the
		// anon pages have nowhere to go; with zswap the ~3x-compressible anon
		// still fits.
		{"capacity-loss", "feed", core.ModeZswap, "off", "capacity x0.42 ramp=1m"},
		{"compress-drift", "cache-b", core.ModeZswap, "static", "compress x0.3 ramp=2m"},
		{"stall-storm", "feed", core.ModeSSDSwap, "static", "ssd-stall 2s every=60s for=5s"},
		{"sidecar-bloat", "cache-a", core.ModeZswap, "static", "bloat %dB ramp=2m"},
	}
}

// resilienceTiming returns the fault's injection instant and the recovery
// window after it.
func resilienceTiming(cfg Config) (faultAt, window vclock.Duration) {
	return cfg.dur(40*vclock.Minute, 8*vclock.Minute), cfg.dur(30*vclock.Minute, 10*vclock.Minute)
}

// Resilience runs the full scorecard.
func Resilience(cfg Config) ResilienceResult {
	faultAt, window := resilienceTiming(cfg)
	return ResilienceResult{
		Outcomes:  runResilience(cfg, ""),
		Threshold: resilienceThreshold,
		FaultAt:   faultAt,
		Window:    window,
	}
}

// runResilience runs the scenario named only, or every scenario if only is
// empty — a senpai and a baseline arm each — and pairs the arms into
// outcomes.
func runResilience(cfg Config, only string) []ResilienceOutcome {
	faultAt, recovery := resilienceTiming(cfg)
	var outs []ResilienceOutcome
	var arms []fleet.Arm
	var recs []ResilienceArm // each arm's name and the series its hook samples
	for i, sc := range resilienceScenarios() {
		if only != "" && sc.name != only {
			continue
		}
		p := cfg.profile(sc.app)
		capacity := int64(1.5 * float64(p.FootprintBytes))
		clause := sc.clause
		if strings.Contains(clause, "%d") {
			clause = fmt.Sprintf(clause, capacity/4)
		}
		script := fmt.Sprintf("t=%s %s", faultAt, clause)
		outs = append(outs, ResilienceOutcome{Name: sc.name, Script: script})
		for _, controlled := range []bool{true, false} {
			opts := core.Options{
				Mode:          sc.mode,
				CapacityBytes: capacity,
				Seed:          cfg.Seed + 9100 + uint64(i)*37,
			}
			name := "baseline"
			switch {
			case controlled:
				name = "senpai"
				opts.Senpai = cfg.senpai(senpai.ConfigA())
			case sc.baseline == "off":
				opts.Mode = core.ModeOff
			default: // static provisioning: same backend, fixed limit, no feedback
				opts.DisableSenpai = true
			}
			rec := ResilienceArm{
				Name:     name,
				Pressure: &metrics.Series{Name: name + ".pressure"},
				RPS:      &metrics.Series{Name: name + ".rps"},
			}
			recs = append(recs, rec)
			static := !controlled && sc.baseline == "static"
			arms = append(arms, fleet.Arm{
				Opts:     opts,
				Services: []workload.Profile{p},
				Warm:     faultAt,
				Measure:  recovery,
				Hook: func(h *fleet.Host) {
					app := h.Apps[0]
					if static {
						app.Group.SetMemoryMax(h.Server.Now(), int64(staticLimitFrac*float64(p.FootprintBytes)))
					}
					if err := h.Chaos().AddScript(script); err != nil {
						panic("experiments: " + err.Error())
					}
					s := newSampler(5 * vclock.Second)
					s.add(newPressureRate(rec.Pressure, func() vclock.Duration { return fleet.SomeTotal(h.System, app.Group, psi.Memory) }).sample)
					s.add(newCounterRate(rec.RPS, app.Completed).sample)
					h.Server.OnTick(s.onTick)
				},
			})
		}
	}
	scored := fleet.RunArms(arms, func(k int, h fleet.Host, w fleet.Window) ResilienceArm {
		return scoreResilience(recs[k], h.Server.Now(), recovery, w.OOMs)
	})
	for k := range outs {
		outs[k].Senpai, outs[k].Baseline = scored[2*k], scored[2*k+1]
	}
	return outs
}

// scoreResilience scores an arm whose recovery window ended at t2, with
// ooms overcommit events inside it.
func scoreResilience(arm ResilienceArm, t2 vclock.Time, recovery vclock.Duration, ooms int64) ResilienceArm {
	t1 := t2.Add(-recovery)
	pre := 3 * vclock.Minute
	arm.PrePressure = arm.Pressure.MeanOver(t1.Add(-pre), t1)
	arm.PreRPS = arm.RPS.MeanOver(t1.Add(-pre), t1)
	arm.PeakPressure = arm.Pressure.MaxOver(t1, t2)
	tail := recovery / 4
	if tail > 3*vclock.Minute {
		tail = 3 * vclock.Minute
	}
	arm.SteadyPressure = arm.Pressure.MeanOver(t2.Add(-tail), t2)
	arm.RecoveryTime = recoveryTime(arm.Pressure, t1, t2, resilienceThreshold)
	if arm.PreRPS > 0 {
		arm.RPSDipFrac = arm.RPS.MinOver(t1.Add(10*vclock.Second), t2) / arm.PreRPS
	}
	arm.OOMKills = ooms
	arm.Recovered = arm.SteadyPressure < resilienceThreshold && arm.OOMKills == 0
	return arm
}

// recoveryTime finds how long after `from` the series dropped below
// threshold for good: the first instant from which every smoothing window
// (1 minute) through `to` stays below. Returns the full span if pressure
// never settles.
func recoveryTime(s *metrics.Series, from, to vclock.Time, threshold float64) vclock.Duration {
	const smooth = vclock.Minute
	peakAt := from
	peak := -1.0
	for _, pt := range s.Points {
		if pt.T < from || pt.T > to {
			continue
		}
		if pt.V > peak {
			peak, peakAt = pt.V, pt.T
		}
	}
	if peak < threshold {
		return 0 // the fault never pushed pressure over the bar
	}
	for _, pt := range s.Points {
		if pt.T <= peakAt || pt.T > to {
			continue
		}
		end := pt.T.Add(smooth)
		if end > to {
			end = to
		}
		if s.MeanOver(pt.T, end) < threshold && s.MaxOver(end, to) < threshold {
			return pt.T.Sub(from)
		}
	}
	return to.Sub(from)
}

// Render implements Result.
func (r ResilienceResult) Render() string {
	out := fmt.Sprintf("Resilience scorecard: fault injected at %s, %s recovery window, threshold %.1f%% mem-some\n",
		r.FaultAt, r.Window, 100*r.Threshold)
	rows := [][]string{{"fault", "arm", "peak psi", "steady psi", "recovery", "rps dip", "ooms", "recovered"}}
	for _, o := range r.Outcomes {
		for _, arm := range []ResilienceArm{o.Senpai, o.Baseline} {
			rec := "no"
			if arm.Recovered {
				rec = "yes"
			}
			rows = append(rows, []string{
				o.Name, arm.Name,
				fmt.Sprintf("%.2f%%", 100*arm.PeakPressure),
				fmt.Sprintf("%.2f%%", 100*arm.SteadyPressure),
				arm.RecoveryTime.String(),
				fmt.Sprintf("%.2f", arm.RPSDipFrac),
				fmt.Sprintf("%d", arm.OOMKills),
				rec,
			})
		}
	}
	out += textplot.Table(rows)
	for _, o := range r.Outcomes {
		out += fmt.Sprintf("\n%s: %s\n", o.Name, o.Script)
	}
	return out
}

var _ Result = ResilienceResult{}
