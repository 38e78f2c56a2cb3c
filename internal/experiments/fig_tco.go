package experiments

import (
	"fmt"
	"strings"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// TCOPoint is one tier layout's cost/performance equilibrium.
type TCOPoint struct {
	// Label names the layout ("zswap" or the chain signature).
	Label string
	// NumTiers is the chain length (1 for the single-pool baseline).
	NumTiers int
	// SavingsFrac is net resident reduction vs the no-offload baseline.
	SavingsFrac float64
	// MeanMemPressure over the measurement window.
	MeanMemPressure float64
	// PoolGB and SSDGB are the mean DRAM and flash the layout's offloaded
	// bytes occupied over the window (compressed pools burn DRAM; the swap
	// tier burns flash).
	PoolGB, SSDGB float64
	// CostPerGBSaved is the scorecard metric: relative infrastructure cost
	// (Fig. 1 units — % of server cost per GB) of the substrate holding the
	// offloaded bytes, divided by the GB of DRAM the layout freed.
	CostPerGBSaved float64
}

// TCOResult is the tco scorecard: the same workload, controller, and DRAM
// budget across 1-, 2-, and 3-tier layouts, scored by $/GB-saved under the
// paper's Fig. 1 cost model. The multi-tier thesis (arXiv 2404.13886): once
// cold compressed pages can keep falling to flash, the DRAM the pool itself
// burns shrinks, so each saved GB costs less — without giving back pressure,
// because the fast tier still absorbs the reuse traffic.
type TCOResult struct {
	Points []TCOPoint
}

// TCO runs the tco scorecard experiment.
func TCO(cfg Config) TCOResult {
	warm := cfg.dur(120*vclock.Minute, 24*vclock.Minute)
	measure := cfg.dur(30*vclock.Minute, 6*vclock.Minute)
	p := cfg.profile("cache-b")
	capacity := 2 * p.FootprintBytes

	// Fig. 1's latest generation prices the substrates: DRAM at 33% of
	// server cost per (relative) GB, iso-capacity flash under 1%.
	trend := backend.CostTrend()
	gen := trend[len(trend)-1]

	const GB = float64(1 << 30)
	layout := func(tiers []backend.TierSpec) arm {
		mode := core.ModeZswap
		if tiers != nil {
			mode = core.ModeTiered
		}
		return arm{
			opts: core.Options{
				Mode:          mode,
				CapacityBytes: capacity,
				DeviceModel:   "G",
				Tiers:         tiers,
				Senpai:        cfg.senpai(tcoSenpai()),
				Seed:          cfg.Seed + 4100,
			},
			services: []workload.Profile{p},
			warm:     warm,
			measure:  measure,
			step:     10 * vclock.Second,
		}
	}

	// The single-pool layout holds every offloaded byte in DRAM and runs
	// beside the no-offload baseline; its mean pool usage then sizes the
	// chains' DRAM budget. Each chain keeps only a hot slice of that in
	// compressed DRAM — the watermark demotion loop pushes the cold
	// remainder down to flash, which is what actually cuts the bill: flash
	// is ~50x cheaper per GB than the DRAM it displaces.
	ws := runArms([]arm{
		baseline(core.Options{CapacityBytes: capacity, Seed: cfg.Seed + 4100}, warm, p),
		layout(nil),
	}, windowOf)
	base := ws[0].meanNet
	// point scores a layout's window against the baseline.
	point := func(label string, tiers []backend.TierSpec, w window) TCOPoint {
		pt := TCOPoint{
			Label:           label,
			NumTiers:        max(1, len(tiers)), // the single pool is one zswap tier
			SavingsFrac:     1 - w.meanNet/base,
			MeanMemPressure: w.appPressure,
			PoolGB:          w.meanPool / GB,
			SSDGB:           w.meanSSD / GB,
		}
		cost := pt.PoolGB*gen.MemoryPct + pt.SSDGB*gen.SSDPct
		if savedGB := (base - w.meanNet) / GB; savedGB > 0 {
			pt.CostPerGBSaved = cost / savedGB
		}
		return pt
	}
	single := point("zswap", nil, ws[1])
	budget := int64(0.6 * single.PoolGB * GB)
	if budget < 1<<20 {
		budget = 1 << 20
	}
	chains := []struct {
		label string
		tiers []backend.TierSpec
	}{
		{"zstd+ssd", []backend.TierSpec{
			{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: budget, MinCompressRatio: 1.5},
			{Kind: backend.TierSSD},
		}},
		{"lz4+zstd+ssd", []backend.TierSpec{
			{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 2 * budget / 3},
			{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: budget - 2*budget/3, MinCompressRatio: 1.5},
			{Kind: backend.TierSSD},
		}},
	}
	ws = runArms([]arm{layout(chains[0].tiers), layout(chains[1].tiers)}, windowOf)
	res := TCOResult{Points: []TCOPoint{single}}
	for i, c := range chains {
		res.Points = append(res.Points, point(c.label, c.tiers, ws[i]))
	}
	return res
}

// tcoSenpai is the scorecard's controller: ConfigB's aggressive reclaim
// with a pressure ceiling low enough to bind, so every layout converges at
// the same pressure target and differentiates on savings and cost instead.
func tcoSenpai() senpai.Config {
	c := senpai.ConfigB()
	c.MemPressureThreshold = 0.0015
	return c
}

// ChainBeatsSinglePool reports the scorecard's headline: the deepest chain
// saves each GB strictly cheaper than the single-pool baseline without
// paying for it in pressure.
func (r TCOResult) ChainBeatsSinglePool() bool {
	if len(r.Points) < 2 {
		return false
	}
	single, chain := r.Points[0], r.Points[len(r.Points)-1]
	return chain.CostPerGBSaved > 0 &&
		chain.CostPerGBSaved < single.CostPerGBSaved &&
		chain.MeanMemPressure <= single.MeanMemPressure
}

// Render implements Result.
func (r TCOResult) Render() string {
	rows := [][]string{{"Layout", "tiers", "Savings", "mem pressure", "pool GB", "ssd GB", "cost/GB-saved"}}
	labels := make([]string, 0, len(r.Points))
	values := make([]float64, 0, len(r.Points))
	for _, pt := range r.Points {
		rows = append(rows, []string{
			pt.Label,
			fmt.Sprintf("%d", pt.NumTiers),
			fmt.Sprintf("%.1f%%", 100*pt.SavingsFrac),
			fmt.Sprintf("%.4f", pt.MeanMemPressure),
			fmt.Sprintf("%.3f", pt.PoolGB),
			fmt.Sprintf("%.3f", pt.SSDGB),
			fmt.Sprintf("%.2f", pt.CostPerGBSaved),
		})
		labels = append(labels, pt.Label)
		values = append(values, pt.CostPerGBSaved)
	}
	var b strings.Builder
	b.WriteString("Memory TCO: cost per GB saved by tier layout (Fig. 1 cost model)\n")
	b.WriteString(textplot.Table(rows))
	b.WriteString(textplot.Bar("cost/GB-saved by layout (lower is better)", labels, values, 40))
	return b.String()
}

var _ Result = TCOResult{}
