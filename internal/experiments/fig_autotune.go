package experiments

import (
	"fmt"

	"tmo/internal/core"
	"tmo/internal/metrics"
	"tmo/internal/mm"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// AutoTuneResult compares the fixed production reclaim ratio against the
// §3.3-future-work online tuner, both starting from the same conservative
// configuration.
type AutoTuneResult struct {
	// Static/Tuned resident trajectories (bytes).
	Static, Tuned *metrics.Series
	// Savings fractions at the end of the run, vs the initial resident.
	StaticSavings, TunedSavings float64
	// TunedPressure is the tuned run's mean pressure over the final third
	// — the tuner must buy speed without losing safety.
	TunedPressure float64
	// FinalMultiplier is where the tuner's ratio multiplier settled.
	FinalMultiplier float64
}

// AutoTune runs the comparison. Both runs use the production ratio verbatim
// (the quick-mode boost would mask exactly the slowness the tuner fixes).
func AutoTune(cfg Config) AutoTuneResult {
	dur := cfg.dur(90*vclock.Minute, 25*vclock.Minute)
	p := cfg.profile("analytics") // plenty of cold memory to find

	// The static arm, then the tuned one; each records its resident
	// trajectory from boot and remembers its initial resident set.
	series := []*metrics.Series{{Name: "static"}, {Name: "auto-tuned"}}
	initial := make([]float64, len(series))
	arms := make([]arm, len(series))
	warm, measure := vclock.Duration(float64(dur)*2/3), dur/3
	for i, s := range series {
		sc := senpai.ConfigA()
		arms[i] = arm{
			opts: core.Options{
				Mode:          core.ModeZswap,
				CapacityBytes: 2 * p.FootprintBytes,
				Senpai:        &sc,
				Seed:          cfg.Seed + 2100,
			},
			services: []workload.Profile{p},
			warm:     warm,
			measure:  measure,
			hook: func(h *host) {
				g := h.apps[0].Group
				if i == 1 {
					h.Senpai.EnableAutoTune(senpai.DefaultAutoTune())
				}
				smp := newSampler(20 * vclock.Second)
				smp.add(func(now vclock.Time) { s.Record(now, float64(g.MemoryCurrent())) })
				h.Server.OnTick(smp.onTick)
				initial[i] = float64(g.MemoryCurrent())
			},
		}
	}
	type run struct{ savings, pressure, multiplier float64 }
	out := runArms(arms, func(i int, h host, w window) run {
		g := h.apps[0].Group
		return run{1 - float64(g.MemoryCurrent())/initial[i], w.appPressure, h.Senpai.TuneMultiplier(g)}
	})
	return AutoTuneResult{
		Static:          series[0],
		Tuned:           series[1],
		StaticSavings:   out[0].savings,
		TunedSavings:    out[1].savings,
		TunedPressure:   out[1].pressure,
		FinalMultiplier: out[1].multiplier,
	}
}

// Render implements Result.
func (r AutoTuneResult) Render() string {
	out := "Online parameter tuning (§3.3 future work): fixed ratio vs AIMD tuner\n"
	out += textplot.Chart("resident memory (bytes)",
		[]*metrics.Series{r.Static.Downsample(72), r.Tuned.Downsample(72)}, 72, 10)
	out += textplot.Table([][]string{
		{"Controller", "savings at end", "final multiplier"},
		{"static ConfigA", fmt.Sprintf("%.1f%%", 100*r.StaticSavings), "1.0"},
		{"auto-tuned", fmt.Sprintf("%.1f%%", 100*r.TunedSavings), fmt.Sprintf("%.1f", r.FinalMultiplier)},
	})
	out += fmt.Sprintf("tuned run's final-third pressure: %.4f (threshold %.4f)\n",
		r.TunedPressure, senpai.ConfigA().MemPressureThreshold)
	return out
}

var _ Result = AutoTuneResult{}

// ---------------------------------------------------------------------------
// Ablation: LRU quality vs the exact-coldness oracle.

// LRUQualityOutcome is one policy's equilibrium.
type LRUQualityOutcome struct {
	Policy      mm.ReclaimPolicy
	SavingsFrac float64
	FaultsPerS  float64
	MemPressure float64
}

// AblationLRUQualityResult compares the production LRU approximation
// against PolicyOracle, which evicts by exact last-access age. The gap
// measures how much savings better cold-page detection could still buy —
// the question behind §5.3's interest in hardware-assisted hot/cold
// estimation.
type AblationLRUQualityResult struct {
	LRU, Oracle LRUQualityOutcome
}

// LRUEfficiency is the LRU's savings as a fraction of the oracle's.
func (r AblationLRUQualityResult) LRUEfficiency() float64 {
	if r.Oracle.SavingsFrac == 0 {
		return 0
	}
	return r.LRU.SavingsFrac / r.Oracle.SavingsFrac
}

// AblationLRUQuality runs the comparison under identical Senpai settings.
func AblationLRUQuality(cfg Config) AblationLRUQualityResult {
	warm := cfg.dur(60*vclock.Minute, 15*vclock.Minute)
	measure := cfg.dur(20*vclock.Minute, 5*vclock.Minute)
	p := cfg.profile("feed")

	policies := []mm.ReclaimPolicy{mm.PolicyTMO, mm.PolicyOracle}
	arms := make([]arm, len(policies))
	initial := make([]float64, len(policies)) // resident set at boot
	for i, policy := range policies {
		arms[i] = arm{
			opts: core.Options{
				Mode:          core.ModeZswap,
				CapacityBytes: 2 * p.FootprintBytes,
				Policy:        policy,
				Senpai:        cfg.senpai(senpai.ConfigA()),
				Seed:          cfg.Seed + 2200,
			},
			services: []workload.Profile{p},
			warm:     warm,
			measure:  measure,
			hook:     func(h *host) { initial[i] = float64(h.apps[0].Group.MemoryCurrent()) },
		}
	}
	out := runArms(arms, func(i int, h host, w window) LRUQualityOutcome {
		return LRUQualityOutcome{
			Policy:      policies[i],
			SavingsFrac: 1 - float64(h.apps[0].Group.MemoryCurrent())/initial[i],
			FaultsPerS:  float64(w.stat.SwapIns+w.stat.Refaults) / measure.Seconds(),
			MemPressure: w.appPressure,
		}
	})
	return AblationLRUQualityResult{LRU: out[0], Oracle: out[1]}
}

// Render implements Result.
func (r AblationLRUQualityResult) Render() string {
	rows := [][]string{{"Policy", "savings", "faults/s", "mem pressure"}}
	for _, o := range []LRUQualityOutcome{r.LRU, r.Oracle} {
		rows = append(rows, []string{
			o.Policy.String(),
			fmt.Sprintf("%.1f%%", 100*o.SavingsFrac),
			fmt.Sprintf("%.1f", o.FaultsPerS),
			fmt.Sprintf("%.4f", o.MemPressure),
		})
	}
	return "Ablation (§5.3): production LRU vs exact-coldness oracle\n" + textplot.Table(rows) +
		fmt.Sprintf("the LRU approximation achieves %.0f%% of the oracle's savings\n", 100*r.LRUEfficiency())
}

var _ Result = AblationLRUQualityResult{}
