package experiments

import (
	"fmt"

	"tmo/internal/cgroup"
	"tmo/internal/core"
	"tmo/internal/metrics"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// AdaptationResult measures the §3.3 timescale asymmetry: "reaction time to
// extreme contraction tends to be minutes. Adaptation to workload expansion,
// on the other hand, is immediate."
//
// A workload runs under TMO at full load, drops to 30% load (its working
// set shrinks, Senpai slowly drains the now-cold memory), then returns to
// full load (the working set re-expands through demand faults, which are
// not rate-limited by any controller).
type AdaptationResult struct {
	// Resident is the workload's resident-memory series across the three
	// phases.
	Resident *metrics.Series
	// PhaseDur is the duration of each load phase.
	PhaseDur vclock.Duration
	// ContractionTime is how long after the load drop the resident set
	// took to give up half of what it would eventually shed.
	ContractionTime vclock.Duration
	// ExpansionTime is how long after the load return the resident set
	// took to regain half of what it eventually regained.
	ExpansionTime vclock.Duration
}

// ExpansionFasterBy is the contraction/expansion timescale ratio.
func (r AdaptationResult) ExpansionFasterBy() float64 {
	if r.ExpansionTime <= 0 {
		return 0
	}
	return float64(r.ContractionTime) / float64(r.ExpansionTime)
}

// Adaptation runs the load-step experiment.
func Adaptation(cfg Config) AdaptationResult {
	phase := cfg.dur(40*vclock.Minute, 15*vclock.Minute)
	p := cfg.profile("cache-b") // hot working set: load strongly shapes it
	// This experiment measures the production controller's own pacing, so
	// the quick-mode ratio boost must NOT apply: the asymmetry being
	// demonstrated is precisely that contraction is ratio-limited while
	// expansion is not.
	sc := senpai.ConfigA()
	sys := core.New(core.Options{
		Mode:          core.ModeZswap,
		CapacityBytes: 2 * p.FootprintBytes,
		Senpai:        &sc,
		Seed:          cfg.Seed + 1900,
	})
	app := sys.AddProfile(p, cgroup.Workload)

	res := AdaptationResult{
		Resident: &metrics.Series{Name: "resident"},
		PhaseDur: phase,
	}
	s := newSampler(10 * vclock.Second)
	s.add(func(now vclock.Time) {
		res.Resident.Record(now, float64(app.Group.MemoryCurrent()))
	})
	sys.Server.OnTick(s.onTick)

	// Phase 1: full load; Senpai converges on the busy working set.
	sys.Run(phase)
	// Phase 2: the load drops to 30%; pages cool and Senpai drains them
	// at its ratio-limited pace.
	app.SetAdmitted(0.3)
	t1 := sys.Server.Now()
	sys.Run(phase)
	// Phase 3: the load returns; the working set re-expands by demand
	// faulting, with no controller in the way.
	app.SetAdmitted(1)
	t2 := sys.Server.Now()
	sys.Run(phase)
	t3 := sys.Server.Now()

	res.ContractionTime = halfLife(res.Resident, t1, t2, false)
	res.ExpansionTime = halfLife(res.Resident, t2, t3, true)
	return res
}

// halfLife returns how long after `from` the series took to cover half the
// total move it made by `to`. rising selects the direction.
func halfLife(s *metrics.Series, from, to vclock.Time, rising bool) vclock.Duration {
	start := s.MeanOver(from.Add(-30*vclock.Second), from)
	var extreme float64
	if rising {
		extreme = s.MaxOver(from, to)
	} else {
		extreme = s.MinOver(from, to)
	}
	target := start + (extreme-start)/2
	for _, pt := range s.Points {
		if pt.T < from || pt.T > to {
			continue
		}
		if (rising && pt.V >= target) || (!rising && pt.V <= target) {
			return pt.T.Sub(from)
		}
	}
	return to.Sub(from)
}

// Render implements Result.
func (r AdaptationResult) Render() string {
	out := "Adaptation timescales (§3.3): contraction is paced, expansion is immediate\n"
	out += textplot.Chart("resident memory across load phases (full | 30% | full)",
		[]*metrics.Series{r.Resident.Downsample(72)}, 72, 10)
	out += textplot.Table([][]string{
		{"Transition", "half-life"},
		{"contraction (load drop)", r.ContractionTime.String()},
		{"expansion (load return)", r.ExpansionTime.String()},
	})
	out += fmt.Sprintf("expansion is %.0fx faster than contraction\n", r.ExpansionFasterBy())
	return out
}

var _ Result = AdaptationResult{}

// ---------------------------------------------------------------------------
// Ablation: swap readahead.

// ReadaheadOutcome is one configuration's steady state.
type ReadaheadOutcome struct {
	Depth int
	// MajorFaultsPerSec is the swap-in fault rate the workload serves.
	MajorFaultsPerSec float64
	// ReadaheadPerSec is the rate of pages brought in by readahead.
	ReadaheadPerSec float64
	// MemPressure over the window.
	MemPressure float64
	// ResidentMiB at the end.
	ResidentMiB float64
}

// AblationReadaheadResult compares swap-in behaviour with and without
// kernel-style swap readahead on a working-set-drifting workload, where
// cluster neighbours are likely to be wanted soon after each other.
type AblationReadaheadResult struct {
	Off, On ReadaheadOutcome
}

// AblationReadahead runs the comparison.
func AblationReadahead(cfg Config) AblationReadaheadResult {
	warm := cfg.dur(40*vclock.Minute, 12*vclock.Minute)
	measure := cfg.dur(15*vclock.Minute, 5*vclock.Minute)
	p := cfg.profile("ads-b") // phase-shifting working set

	depths := []int{0, 8}
	arms := make([]arm, len(depths))
	ra0 := make([]int64, len(depths)) // host-wide readahead-ins at the window's start
	for i, depth := range depths {
		arms[i] = arm{
			opts: core.Options{
				Mode:          core.ModeZswap,
				CapacityBytes: 2 * p.FootprintBytes,
				Senpai:        cfg.senpai(senpai.ConfigA()),
				SwapReadahead: depth,
				Seed:          cfg.Seed + 2000,
			},
			services: []workload.Profile{p},
			measure:  measure,
			// Warm up here, so the window can difference the manager-wide
			// readahead counter too.
			hook: func(h *host) {
				h.Run(warm)
				ra0[i] = h.Server.Manager().ReadaheadIn()
			},
		}
	}
	out := runArms(arms, func(i int, h host, w window) ReadaheadOutcome {
		return ReadaheadOutcome{
			Depth:             depths[i],
			MajorFaultsPerSec: float64(w.stat.SwapIns) / measure.Seconds(),
			ReadaheadPerSec:   float64(h.Server.Manager().ReadaheadIn()-ra0[i]) / measure.Seconds(),
			MemPressure:       w.appPressure,
			ResidentMiB:       float64(h.apps[0].Group.MemoryCurrent()) / (1 << 20),
		}
	})
	return AblationReadaheadResult{Off: out[0], On: out[1]}
}

// Render implements Result.
func (r AblationReadaheadResult) Render() string {
	rows := [][]string{{"Readahead", "major faults/s", "readahead pages/s", "mem pressure", "resident (MiB)"}}
	for _, o := range []ReadaheadOutcome{r.Off, r.On} {
		rows = append(rows, []string{
			fmt.Sprintf("%d", o.Depth),
			fmt.Sprintf("%.1f", o.MajorFaultsPerSec),
			fmt.Sprintf("%.1f", o.ReadaheadPerSec),
			fmt.Sprintf("%.4f", o.MemPressure),
			fmt.Sprintf("%.1f", o.ResidentMiB),
		})
	}
	return "Ablation: swap readahead on a drifting working set\n" + textplot.Table(rows)
}

var _ Result = AblationReadaheadResult{}
