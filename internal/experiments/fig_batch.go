package experiments

import (
	"fmt"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// BatchCell is one (readahead depth, writeback queue depth) configuration's
// steady state on the SSD-swap host.
type BatchCell struct {
	// Readahead is the swap-readahead window (pages); zero disables.
	Readahead int
	// WBDepth is the async writeback queue depth.
	WBDepth int
	// RPS over the measurement window.
	RPS float64
	// MeanFaultUs is the mean host-visible fault latency over the run.
	MeanFaultUs float64
	// MeanMemPressure over the measurement window.
	MeanMemPressure float64
	// ReadaheadIns counts pages pulled in by the readahead window;
	// Coalesced counts faults absorbed by an already-in-flight cluster.
	ReadaheadIns, Coalesced int64
	// WBStalls counts reclaim stalls on a full writeback queue, and
	// WBStallUs the time they cost; Drained counts the write submissions
	// the queue issued to the device, a clustered batch counting once.
	WBStalls, WBStallUs, Drained int64
}

// BatchResult is the swap-batching scorecard: a grid over the two batching
// knobs the swap path exposes — the fault-side readahead window and the
// reclaim-side async writeback queue depth — under one memory-bound SSD-swap
// host. The corners tell the story: no readahead + a depth-1 queue serializes
// both directions (every fault pays a full device round trip, every swap-out
// blocks reclaim on the device); the batched corner clusters faults and
// absorbs write bursts, so the same offload depth costs less stall.
type BatchResult struct {
	// Cells run serial first (no readahead, depth 1) and fully batched last.
	Cells []BatchCell
}

// AblationBatch runs the grid.
func AblationBatch(cfg Config) BatchResult {
	warm := cfg.dur(45*vclock.Minute, 10*vclock.Minute)
	measure := cfg.dur(20*vclock.Minute, 6*vclock.Minute)
	p := cfg.profile("feed")
	// Memory-bound: senpai drives reclaim continuously, so both the fault
	// path (swap-ins of offloaded pages) and the writeback path (swap-outs)
	// stay busy through the window.
	capacity := int64(1.2 * float64(p.FootprintBytes))

	var arms []fleet.Arm
	for _, ra := range []int{0, 8} {
		for _, d := range []int{1, backend.DefaultWritebackDepth} {
			arms = append(arms, fleet.Arm{
				Opts: core.Options{
					Mode:           core.ModeSSDSwap,
					CapacityBytes:  capacity,
					DeviceModel:    "C",
					SwapReadahead:  ra,
					WritebackDepth: d,
					Senpai:         cfg.senpai(senpai.ConfigA()),
					Seed:           cfg.Seed + 2700,
				},
				Services: []workload.Profile{p},
				Warm:     warm,
				Measure:  measure,
			})
		}
	}
	return BatchResult{Cells: fleet.RunArms(arms, func(_ int, h fleet.Host, w fleet.Window) BatchCell {
		mgr := h.Server.Manager()
		drained, stalls, stallTime := h.Chain.SSD().Writeback()
		return BatchCell{
			Readahead:       h.Opts.SwapReadahead,
			WBDepth:         h.Opts.WritebackDepth,
			RPS:             w.RPS,
			MeanFaultUs:     mgr.FaultLatency().Mean(),
			MeanMemPressure: w.AppPressure,
			ReadaheadIns:    mgr.ReadaheadIn(),
			Coalesced:       mgr.FaultCoalesced(),
			WBStalls:        stalls,
			WBStallUs:       int64(stallTime),
			Drained:         drained,
		}
	})}
}

// Claims states the scorecard's headline — the fully batched corner holds
// lower memory pressure than the fully serialized corner at no throughput
// cost, with both batching mechanisms demonstrably active — and the
// readahead claim: clustered neighbours are in flight when the next fault
// lands, so the batched corner's mean fault is shorter.
func (r BatchResult) Claims() []Claim {
	s, b := r.Cells[0], r.Cells[len(r.Cells)-1]
	return []Claim{
		exceeds("batched pressure below serial", s.MeanMemPressure, b.MeanMemPressure),
		atLeast("batched RPS at least 99% of serial", b.RPS, 0.99*s.RPS),
		exceeds("batched readahead pulled pages in", float64(b.ReadaheadIns), 0),
		exceeds("serial wb stalls above batched", float64(s.WBStalls), float64(b.WBStalls)),
		exceeds("batched mean fault below serial (us)", s.MeanFaultUs, b.MeanFaultUs),
	}
}

// Render implements Result.
func (r BatchResult) Render() string {
	rows := [][]string{{"readahead", "wb depth", "RPS", "fault (us)", "mem pressure",
		"ra-ins", "coalesced", "wb stalls", "wb stall (ms)", "drained"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.Readahead),
			fmt.Sprintf("%d", c.WBDepth),
			fmt.Sprintf("%.0f", c.RPS),
			fmt.Sprintf("%.1f", c.MeanFaultUs),
			fmt.Sprintf("%.4f", c.MeanMemPressure),
			fmt.Sprintf("%d", c.ReadaheadIns),
			fmt.Sprintf("%d", c.Coalesced),
			fmt.Sprintf("%d", c.WBStalls),
			fmt.Sprintf("%.1f", float64(c.WBStallUs)/1e3),
			fmt.Sprintf("%d", c.Drained),
		})
	}
	return "Ablation: swap batching — readahead window x writeback queue depth\n" + textplot.Table(rows)
}

var _ Result = BatchResult{}
