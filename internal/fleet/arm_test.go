package fleet

import (
	"math"
	"reflect"
	"testing"

	"tmo/internal/core"
	"tmo/internal/gswap"
	"tmo/internal/senpai"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// testArms builds a small mixed batch: a baseline, a plain zswap arm, an SSD
// arm averaged over steps, an arm whose hook swaps Senpai for g-swap, a
// stepped arm whose window is shorter than its step, and a WithTax spec's
// A/B pair, whose hook adds the tax sidecars as containers.
func testArms() []Arm {
	p := workload.MustCatalog("feed").Scale(0.25)
	capacity := 2 * p.FootprintBytes
	warm, measure := 2*vclock.Minute, vclock.Minute
	quick := senpai.ConfigA()
	quick.ReclaimRatio *= 16
	tax := Spec{App: "cache-a", Mode: core.ModeZswap, Scale: 0.25, Senpai: &quick, WithTax: true, Seed: 14}.normalize()
	return []Arm{
		Baseline(core.Options{CapacityBytes: capacity, Seed: 11}, warm, p),
		{
			Opts:     core.Options{Mode: core.ModeZswap, CapacityBytes: capacity, Senpai: &quick, Seed: 11},
			Services: []workload.Profile{p}, Warm: warm, Measure: measure,
		},
		{
			Opts:     core.Options{Mode: core.ModeSSDSwap, CapacityBytes: capacity, Senpai: &quick, Seed: 12},
			Services: []workload.Profile{p}, Warm: warm, Measure: measure, Step: 10 * vclock.Second,
		},
		{
			Opts:     core.Options{Mode: core.ModeSSDSwap, CapacityBytes: capacity, DisableSenpai: true, Seed: 13},
			Services: []workload.Profile{p}, Warm: warm, Measure: measure,
			Hook: func(h *Host) {
				g := gswap.New(gswap.DefaultConfig(60))
				g.AddTarget(h.Apps[0].Group)
				h.Server.OnTick(g.Tick)
			},
		},
		{
			Opts:     core.Options{Mode: core.ModeZswap, CapacityBytes: capacity, Senpai: &quick, Seed: 15},
			Services: []workload.Profile{p}, Warm: warm, Measure: 5 * vclock.Second, Step: 10 * vclock.Second,
		},
		tax.arm(tax.Mode, warm, measure),
		tax.arm(core.ModeOff, warm, measure),
	}
}

type armResult struct {
	W        Window
	Resident int64
	Now      vclock.Time
}

func scoreTestArm(_ int, h Host, w Window) armResult {
	return armResult{W: w, Resident: h.Apps[0].Group.MemoryCurrent(), Now: h.Server.Now()}
}

// TestRunArmsIndependent pins that exhibit output cannot depend on
// scheduling: arms run as one batch on the worker pool score exactly as
// each does run alone. `make race` runs it under the race detector, which
// also proves the arms share no mutable state.
func TestRunArmsIndependent(t *testing.T) {
	batch := RunArms(testArms(), scoreTestArm)
	for i, a := range testArms() {
		alone := RunArms([]Arm{a}, scoreTestArm)[0]
		if !reflect.DeepEqual(batch[i], alone) {
			t.Errorf("arm %d: batch %+v, alone %+v", i, batch[i], alone)
		}
	}
	if batch[0].W.MeanNet <= 0 || batch[2].W.MeanNet <= 0 {
		t.Errorf("stepped arms averaged no resident bytes: %+v", batch)
	}
	if w := batch[2].W; w.MeanSSD <= 0 || w.MeanPool != 0 {
		t.Errorf("SSD arm's offloaded bytes not all on flash: pool %.0f, ssd %.0f", w.MeanPool, w.MeanSSD)
	}
	if batch[1].W.RPS <= 0 || batch[1].W.Stat.SwapOuts <= 0 {
		t.Errorf("zswap arm served or offloaded nothing: %+v", batch[1].W)
	}

	// A window shorter than its step still runs one step, so its means
	// are readings, not 0/0.
	short := batch[4].W
	for _, v := range []float64{short.MeanNet, short.MeanPool, short.MeanSSD, short.RPS, short.Containers[0].Anon} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("short-window arm averaged over zero steps: %+v", short)
		}
	}
	if short.MeanNet <= 0 {
		t.Errorf("short-window arm averaged no resident bytes: %+v", short)
	}

	// The tax hook's sidecars are containers 1 and 2 of both hosts; the
	// TMO host attributes part of its pool to them.
	for _, k := range []int{5, 6} {
		if cs := batch[k].W.Containers; len(cs) != 3 || cs[1].Current <= 0 || cs[2].Current <= 0 || cs[0].Completed <= 0 {
			t.Errorf("tax arm %d containers: %+v", k, cs)
		}
	}
	if cs := batch[5].W.Containers; cs[1].Pool+cs[2].Pool <= 0 {
		t.Errorf("TMO tax host attributed no pool to its sidecars: %+v", cs)
	}
	if cs := batch[6].W.Containers; cs[0].Pool != 0 || cs[1].Pool != 0 {
		t.Errorf("baseline tax host attributed pool: %+v", cs)
	}
}
