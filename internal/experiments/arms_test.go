package experiments

import (
	"reflect"
	"testing"

	"tmo/internal/core"
	"tmo/internal/gswap"
	"tmo/internal/senpai"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// testArms builds a small mixed batch: a baseline, a plain zswap arm, an SSD
// arm averaged over steps, and an arm whose hook swaps Senpai for g-swap.
func testArms() []arm {
	p := workload.MustCatalog("feed").Scale(0.25)
	capacity := 2 * p.FootprintBytes
	warm, measure := 2*vclock.Minute, vclock.Minute
	cfg := Config{Quick: true, Seed: 3}
	return []arm{
		baseline(core.Options{CapacityBytes: capacity, Seed: 11}, warm, p),
		{
			opts:     core.Options{Mode: core.ModeZswap, CapacityBytes: capacity, Senpai: cfg.senpai(senpai.ConfigA()), Seed: 11},
			services: []workload.Profile{p}, warm: warm, measure: measure,
		},
		{
			opts:     core.Options{Mode: core.ModeSSDSwap, CapacityBytes: capacity, Senpai: cfg.senpai(senpai.ConfigA()), Seed: 12},
			services: []workload.Profile{p}, warm: warm, measure: measure, step: 10 * vclock.Second,
		},
		{
			opts:     core.Options{Mode: core.ModeSSDSwap, CapacityBytes: capacity, DisableSenpai: true, Seed: 13},
			services: []workload.Profile{p}, warm: warm, measure: measure,
			hook: func(h *host) {
				g := gswap.New(gswap.DefaultConfig(60))
				g.AddTarget(h.apps[0].Group)
				h.Server.AddController(g)
			},
		},
	}
}

type armResult struct {
	W        window
	Resident int64
	Now      vclock.Time
}

func scoreTestArm(_ int, h host, w window) armResult {
	return armResult{W: w, Resident: h.apps[0].Group.MemoryCurrent(), Now: h.Server.Now()}
}

// TestRunArmsIndependent pins that exhibit output cannot depend on
// scheduling: arms run as one batch on the worker pool score exactly as
// each does run alone. `make race` runs it under the race detector, which
// also proves the arms share no mutable state.
func TestRunArmsIndependent(t *testing.T) {
	batch := runArms(testArms(), scoreTestArm)
	for i, a := range testArms() {
		alone := runArms([]arm{a}, scoreTestArm)[0]
		if !reflect.DeepEqual(batch[i], alone) {
			t.Errorf("arm %d: batch %+v, alone %+v", i, batch[i], alone)
		}
	}
	if batch[0].W.meanNet <= 0 || batch[2].W.meanNet <= 0 {
		t.Errorf("stepped arms averaged no resident bytes: %+v", batch)
	}
	if w := batch[2].W; w.meanSSD <= 0 || w.meanPool != 0 {
		t.Errorf("SSD arm's offloaded bytes not all on flash: pool %.0f, ssd %.0f", w.meanPool, w.meanSSD)
	}
	if batch[1].W.rps <= 0 || batch[1].W.stat.SwapOuts <= 0 {
		t.Errorf("zswap arm served or offloaded nothing: %+v", batch[1].W)
	}
}
