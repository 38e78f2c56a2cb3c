package experiments

import (
	"fmt"
	"sort"
	"strings"

	"tmo/internal/cgroup"
	"tmo/internal/core"

	"tmo/internal/metrics"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
)

// Figure14Result carries the write-regulation experiment: a cluster of
// Ads B servers offloading to SSD swap, with Senpai's endurance regulation
// disabled for the first half of the observation period and enabled, at the
// fleet-safe budget, for the second half (§4.5).
type Figure14Result struct {
	// DayDur is one observation "day" of virtual time (scaled down from
	// the paper's calendar days).
	DayDur vclock.Duration
	// RegulationDay is the first day with regulation on (1-based).
	RegulationDay int
	// BudgetBytesPerSec is the write budget applied from RegulationDay.
	BudgetBytesPerSec float64
	// P50/P90 are per-day swap-out write rates across the cluster, in
	// bytes/second.
	P50, P90 *metrics.Series
	// MeanBefore/MeanAfter are the cluster-mean write rates in the two
	// regimes.
	MeanBefore, MeanAfter float64
}

// Figure14 runs the cluster experiment. The Ads B profile's working-set
// drift sustains steady swap-out traffic, so unregulated Senpai writes well
// above the budget; once regulation engages, the controller modulates
// reclaim to hold the device write rate at the budget.
func Figure14(cfg Config) Figure14Result {
	const days = 14
	const regulationDay = 8
	servers := 12
	if cfg.Quick {
		servers = 6
	}
	day := cfg.dur(6*vclock.Minute, 2*vclock.Minute)

	// The budget is set the way the paper's 1 MB/s was: from fleet
	// analysis of observed swap-out traffic (§4.5). It is computed below
	// from the unregulated days' cluster mean.
	p := cfg.profile("ads-b")
	capacity := 2 * p.FootprintBytes
	sc := *cfg.senpai(senpai.ConfigA())

	systems := make([]*core.System, servers)
	controllers := make([]*senpai.Controller, servers)
	lastWritten := make([]int64, servers)
	for i := 0; i < servers; i++ {
		sys := core.New(core.Options{
			Mode:          core.ModeSSDSwap,
			CapacityBytes: capacity,
			DeviceModel:   "C",
			Senpai:        &sc,
			Seed:          cfg.Seed + 1000 + uint64(i)*131,
		})
		sys.AddProfile(p, cgroup.Workload)
		systems[i] = sys
		controllers[i] = sys.Senpai
	}

	res := Figure14Result{
		DayDur:        day,
		RegulationDay: regulationDay,
		P50:           &metrics.Series{Name: "P50 across cluster"},
		P90:           &metrics.Series{Name: "P90 across cluster"},
	}

	var beforeSum, afterSum float64
	var beforeN, afterN int
	for d := 1; d <= days; d++ {
		if d == regulationDay {
			// Fleet analysis: pick the safe budget at a quarter of the
			// observed unregulated traffic, then turn regulation on.
			res.BudgetBytesPerSec = beforeSum / float64(beforeN) / 4
			for _, c := range controllers {
				c.SetWriteBudget(res.BudgetBytesPerSec)
			}
		}
		rates := make([]float64, servers)
		for i, sys := range systems {
			sys.Run(day)
			written := sys.Chain.Stats().WrittenBytes
			rates[i] = float64(written-lastWritten[i]) / day.Seconds()
			lastWritten[i] = written
			if d >= regulationDay {
				afterSum += rates[i]
				afterN++
			} else if d > 1 { // skip the warm-up day
				beforeSum += rates[i]
				beforeN++
			}
		}
		sort.Float64s(rates)
		t := vclock.Time(vclock.Duration(d) * day)
		res.P50.Record(t, rates[servers/2])
		res.P90.Record(t, rates[(servers*9)/10])
	}
	if beforeN > 0 {
		res.MeanBefore = beforeSum / float64(beforeN)
	}
	if afterN > 0 {
		res.MeanAfter = afterSum / float64(afterN)
	}
	return res
}

// Render implements Result.
func (r Figure14Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 14: swap-out rate with and without write regulation\n")
	b.WriteString(textplot.Chart("swap-out write rate (bytes/s per server)",
		[]*metrics.Series{r.P50, r.P90}, 70, 10))
	fmt.Fprintf(&b, "regulation from day %d at budget %.0f B/s\n", r.RegulationDay, r.BudgetBytesPerSec)
	fmt.Fprintf(&b, "cluster mean write rate: %.0f B/s before, %.0f B/s after (%.1fx reduction)\n",
		r.MeanBefore, r.MeanAfter, safeDiv(r.MeanBefore, r.MeanAfter))
	return b.String()
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

var _ Result = Figure14Result{}
