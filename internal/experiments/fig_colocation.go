package experiments

import (
	"fmt"

	"tmo/internal/core"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// ColocationResult is the capacity-stacking experiment: the fleet-economics
// consequence of TMO's savings. Two services whose combined footprint
// exceeds host DRAM by ~33% are co-located; without offloading the host
// thrashes and overcommits, while TMO absorbs the squeeze by offloading
// both workloads' cold memory.
//
// This is the deployment move §5.1 describes — "helped us accurately
// repurpose tax memories for application workloads" — applied to whole
// services.
type ColocationResult struct {
	// IsolatedRPS is the two apps' summed throughput when each runs on
	// its own amply provisioned host (the upper bound).
	IsolatedRPS float64
	// OffRPS/TMORPS are the summed throughputs when co-located on one
	// overcommitted host, without and with TMO.
	OffRPS, TMORPS float64
	// OffOOMs/TMOOOMs count overcommit incidents on the co-located host.
	OffOOMs, TMOOOMs int64
	// OffPressure/TMOPressure are machine memory some-pressure fractions
	// over the measurement window.
	OffPressure, TMOPressure float64
}

// OffEfficiency is co-located throughput without TMO relative to isolated
// hosts.
func (r ColocationResult) OffEfficiency() float64 { return r.OffRPS / r.IsolatedRPS }

// TMOEfficiency is the TMO tier's throughput relative to isolated hosts.
func (r ColocationResult) TMOEfficiency() float64 { return r.TMORPS / r.IsolatedRPS }

// colocRun is one configuration's outcome.
type colocRun struct {
	rps      float64
	pressure float64
	ooms     int64
}

// Colocation runs the experiment.
func Colocation(cfg Config) ColocationResult {
	warm := cfg.dur(60*vclock.Minute, 12*vclock.Minute)
	measure := cfg.dur(20*vclock.Minute, 5*vclock.Minute)
	profA := cfg.profile("feed")
	profB := cfg.profile("cache-a")
	// The co-located host has two thirds of the combined footprint —
	// less than the two services' combined anonymous memory, so without
	// offloading the host is genuinely overcommitted.
	capacity := (profA.FootprintBytes + profB.FootprintBytes) * 2 / 3

	coloc := func(mode core.Mode, capacityBytes int64, seed uint64, profs ...workload.Profile) arm {
		opts := core.Options{Mode: mode, CapacityBytes: capacityBytes, Seed: seed}
		if mode != core.ModeOff {
			opts.Senpai = cfg.senpai(senpai.ConfigA())
		}
		return arm{
			opts:     opts,
			services: profs,
			warm:     warm,
			measure:  measure,
		}
	}
	runs := runArms([]arm{
		coloc(core.ModeOff, 2*profA.FootprintBytes, cfg.Seed+1800, profA),
		coloc(core.ModeOff, 2*profB.FootprintBytes, cfg.Seed+1800, profB),
		coloc(core.ModeOff, capacity, cfg.Seed+1801, profA, profB),
		coloc(core.ModeZswap, capacity, cfg.Seed+1801, profA, profB),
	}, func(_ int, h host, w window) colocRun {
		// OOM events count from boot: overcommit during warm-up counts too.
		return colocRun{rps: w.rps, pressure: w.rootPressure, ooms: h.Server.Manager().OOMEvents()}
	})
	isoA, isoB, off, tmo := runs[0], runs[1], runs[2], runs[3]
	return ColocationResult{
		IsolatedRPS: isoA.rps + isoB.rps,
		OffRPS:      off.rps,
		TMORPS:      tmo.rps,
		OffOOMs:     off.ooms,
		TMOOOMs:     tmo.ooms,
		OffPressure: off.pressure,
		TMOPressure: tmo.pressure,
	}
}

// Render implements Result.
func (r ColocationResult) Render() string {
	rows := [][]string{
		{"Configuration", "combined RPS", "efficiency", "mem pressure", "OOM events"},
		{"isolated hosts (2x DRAM each)", fmt.Sprintf("%.0f", r.IsolatedRPS), "1.00", "-", "-"},
		{"co-located, TMO off", fmt.Sprintf("%.0f", r.OffRPS), fmt.Sprintf("%.2f", r.OffEfficiency()), fmt.Sprintf("%.4f", r.OffPressure), fmt.Sprintf("%d", r.OffOOMs)},
		{"co-located, TMO zswap", fmt.Sprintf("%.0f", r.TMORPS), fmt.Sprintf("%.2f", r.TMOEfficiency()), fmt.Sprintf("%.4f", r.TMOPressure), fmt.Sprintf("%d", r.TMOOOMs)},
	}
	return "Colocation: two services stacked on 67% of their combined DRAM\n" + textplot.Table(rows)
}

var _ Result = ColocationResult{}
