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
	// WBStallUs the time they cost; Drained is pages retired through the
	// queue.
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
	Cells []BatchCell
	// Restated corners for the verdicts.
	Serial, Batched BatchCell
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

	var arms []arm
	for _, ra := range []int{0, 8} {
		for _, d := range []int{1, backend.DefaultWritebackDepth} {
			arms = append(arms, arm{
				opts: core.Options{
					Mode:          core.ModeSSDSwap,
					CapacityBytes: capacity,
					DeviceModel:   "C",
					SwapReadahead: ra,
					Writeback:     backend.WritebackConfig{Depth: d},
					Senpai:        cfg.senpai(senpai.ConfigA()),
					Seed:          cfg.Seed + 2700,
				},
				services: []workload.Profile{p},
				warm:     warm,
				measure:  measure,
			})
		}
	}
	res := BatchResult{Cells: runArms(arms, func(_ int, h host, w window) BatchCell {
		reg := h.Telemetry
		return BatchCell{
			Readahead:       h.Opts.SwapReadahead,
			WBDepth:         h.Opts.Writeback.Depth,
			RPS:             w.rps,
			MeanFaultUs:     reg.Histogram("mm.fault_latency_us").Mean(),
			MeanMemPressure: w.appPressure,
			ReadaheadIns:    reg.Counter("mm.readahead_ins").Value(),
			Coalesced:       reg.Counter("mm.fault_coalesced").Value(),
			WBStalls:        reg.Counter("backend.wb.backpressure_stalls").Value(),
			WBStallUs:       reg.Counter("backend.wb.backpressure_us").Value(),
			Drained:         reg.Counter("backend.wb.drained").Value(),
		}
	})}
	res.Serial = res.Cells[0]
	res.Batched = res.Cells[len(res.Cells)-1]
	return res
}

// BatchingWins reports the scorecard's headline: the fully batched corner
// holds lower memory pressure than the fully serialized corner at no
// throughput cost, with both batching mechanisms demonstrably active.
func (r BatchResult) BatchingWins() bool {
	return r.Batched.MeanMemPressure < r.Serial.MeanMemPressure &&
		r.Batched.RPS >= 0.99*r.Serial.RPS &&
		r.Batched.ReadaheadIns > 0 &&
		r.Serial.WBStalls > r.Batched.WBStalls
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
	var b strings.Builder
	b.WriteString("Ablation: swap batching — readahead window x writeback queue depth\n")
	b.WriteString(textplot.Table(rows))
	if r.BatchingWins() {
		fmt.Fprintf(&b, "batched corner (%d/%d) beats serial (%d/%d): pressure %.4f vs %.4f at no RPS cost\n",
			r.Batched.Readahead, r.Batched.WBDepth, r.Serial.Readahead, r.Serial.WBDepth,
			r.Batched.MeanMemPressure, r.Serial.MeanMemPressure)
	}
	return b.String()
}

var _ Result = BatchResult{}
