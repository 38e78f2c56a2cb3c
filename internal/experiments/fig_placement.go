package experiments

import (
	"fmt"
	"strings"

	"tmo/internal/core"
	"tmo/internal/place"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// PlacementArm is one placement strategy's steady state on the CXL host.
type PlacementArm struct {
	// Name labels the arm: "tpp", "local+swap", "interleave".
	Name string
	// SavingsFrac is net resident reduction (local DRAM net of backend
	// overheads) vs the no-offload baseline.
	SavingsFrac float64
	// MeanMemPressure is the app's windowed memory some-pressure over the
	// measurement window.
	MeanMemPressure float64
	// RPS over the window.
	RPS float64
	// FarMiB is the far-node occupancy at the end of the run.
	FarMiB float64
	// Promotions/Demotions count page migrations between the tiers
	// (zero for the swap-only arm).
	Promotions, Demotions int64
	// Aborts counts promotions dropped mid-copy — restarts free pages
	// under in-flight copies (churn) and commit-time headroom checks fail
	// under pressure. AbortStallUs is the host-visible stall those aborts
	// charged: non-exclusive copies pin it at zero.
	Aborts       int64
	AbortStallUs int64
}

// PlacementResult is the transparent-page-placement scorecard: the TPP-style
// promotion/demotion loop against the two strawmen on an identical host and
// workload — all memory local with SSD swap (TMO's classic configuration,
// no far tier), and static interleave onto the far node with no migration.
// Every arm runs under one shared offload clamp (the same memory.max), so
// all three hold the same local resident set and the same savings; what the
// clamp cannot equalize is *which* pages each arm offloads. That is the
// claim the scorecard pins: at equal-or-better savings the placement loop
// holds lower pressure, because it keeps the hot set local while the
// baselines either page it from swap or strand it at link latency.
type PlacementResult struct {
	TPP, LocalSwap, Interleave PlacementArm
	// Restarts is how many code-push restarts the workload served per arm
	// (the churn source for promotion aborts).
	Restarts int64
}

// interleaveFrac is the static-interleave arm's far fraction: close to the
// host's far:total capacity ratio, the split capacity-proportional hardware
// interleaving would produce.
const interleaveFrac = 0.40

// PlacementScorecard runs the three arms under one seed and workload.
func PlacementScorecard(cfg Config) PlacementResult {
	warm := cfg.dur(30*vclock.Minute, 8*vclock.Minute)
	churn := cfg.dur(10*vclock.Minute, 4*vclock.Minute)
	settle := cfg.dur(10*vclock.Minute, 4*vclock.Minute)
	measure := cfg.dur(20*vclock.Minute, 8*vclock.Minute)
	// The drifting working set keeps both migration directions busy at
	// steady state: every phase shift turns far pages hot (promotion
	// candidates) and local pages cold (demotion victims).
	p := cfg.profile("ads-b")
	// A memory-bound host — the setting a far tier exists for: local DRAM
	// covers only part of the footprint, so every arm must place the
	// remainder somewhere and the placement *quality* decides pressure.
	// The expander is half of DRAM: placement capacity is scarce, so an
	// arm that strands the wrong pages on it pushes the overflow to the
	// swap rung and pays fault latency for its mistakes.
	capacity := int64(0.9 * float64(p.FootprintBytes))
	cxlBytes := capacity / 2

	// localTarget is the offload clamp every arm runs under: local DRAM may
	// hold the hot set plus a sliver of slack, and the remainder — roughly
	// the far node's size — must live on the far tiers. Identical across
	// arms, so savings agree by construction and pressure isolates
	// placement quality.
	localTarget := int64(0.55 * float64(p.FootprintBytes))

	// warmup clamps the app halfway through the warm-up, then runs the
	// churn phase: code-push restarts on a fixed schedule, identical across
	// arms. Each drops all memory — including far pages with promotion
	// copies in flight, the churn the abort path exists for. The phase
	// precedes measurement so every arm's placement re-converges before PSI
	// and savings are judged.
	warmup := func(h *host) {
		app := h.apps[0]
		h.Run(warm / 2)
		app.Group.SetMemoryMax(h.Server.Now(), localTarget)
		h.Run(warm / 2)
		for i := 0; i < 2; i++ {
			h.Run(churn / 2)
			app.Restart(h.Server.Now())
		}
		h.Run(settle)
	}

	strategies := []struct {
		name      string
		mode      core.Mode
		placement *place.Config
	}{
		{"tpp", core.ModeCXL, nil},
		{"local+swap", core.ModeSSDSwap, nil},
		{"interleave", core.ModeCXL, &place.Config{InterleaveFrac: interleaveFrac}},
	}
	arms := []arm{baseline(core.Options{CapacityBytes: 2 * p.FootprintBytes, Seed: cfg.Seed + 2600}, warm, p)}
	for _, s := range strategies {
		arms = append(arms, arm{
			opts: core.Options{
				Mode:          s.mode,
				CapacityBytes: capacity,
				CXLBytes:      cxlBytes,
				DeviceModel:   "C",
				DisableSenpai: true,
				Placement:     s.placement,
				Seed:          cfg.Seed + 2600,
			},
			services: []workload.Profile{p},
			measure:  measure,
			step:     10 * vclock.Second,
			hook:     warmup,
		})
	}
	type run struct {
		a        PlacementArm
		w        window
		restarts int64 // code-push restarts the arm's app served
	}
	runs := runArms(arms, func(_ int, h host, w window) run {
		a := PlacementArm{MeanMemPressure: w.appPressure, RPS: w.rps}
		if h.CXL != nil {
			a.FarMiB = float64(h.CXL.UsedBytes()) / (1 << 20)
			a.Demotions = h.Server.Manager().FarDemotions()
		}
		if h.Place != nil {
			st := h.Place.Stats()
			a.Promotions = st.Promotions
			a.Aborts = st.Aborts()
			a.AbortStallUs = int64(st.AbortStall)
		}
		return run{a, w, h.apps[0].Restarts()}
	})
	out := make([]PlacementArm, len(strategies))
	for i, s := range strategies {
		r := runs[i+1]
		out[i] = r.a
		out[i].Name = s.name
		out[i].SavingsFrac = 1 - r.w.meanNet/runs[0].w.meanNet
	}
	return PlacementResult{TPP: out[0], LocalSwap: out[1], Interleave: out[2], Restarts: runs[len(runs)-1].restarts}
}

// Arms returns the arms in report order.
func (r PlacementResult) Arms() []PlacementArm {
	return []PlacementArm{r.TPP, r.LocalSwap, r.Interleave}
}

// TPPWins reports the scorecard's headline: the placement loop holds lower
// memory pressure than both baselines at equal-or-better savings.
func (r PlacementResult) TPPWins() bool {
	for _, arm := range []PlacementArm{r.LocalSwap, r.Interleave} {
		if r.TPP.MeanMemPressure >= arm.MeanMemPressure {
			return false
		}
		if r.TPP.SavingsFrac < arm.SavingsFrac {
			return false
		}
	}
	return true
}

// AbortsAreFree reports whether churn produced aborted promotions and they
// charged zero host-visible stall — the Nomad non-exclusive-copy property.
func (r PlacementResult) AbortsAreFree() bool {
	return r.TPP.Aborts > 0 && r.TPP.AbortStallUs == 0
}

// Render implements Result.
func (r PlacementResult) Render() string {
	rows := [][]string{{"Arm", "Savings", "mem pressure", "RPS", "far (MiB)", "promos", "demos", "aborts", "abort stall (us)"}}
	for _, a := range r.Arms() {
		rows = append(rows, []string{
			a.Name,
			fmt.Sprintf("%.1f%%", 100*a.SavingsFrac),
			fmt.Sprintf("%.4f", a.MeanMemPressure),
			fmt.Sprintf("%.0f", a.RPS),
			fmt.Sprintf("%.1f", a.FarMiB),
			fmt.Sprintf("%d", a.Promotions),
			fmt.Sprintf("%d", a.Demotions),
			fmt.Sprintf("%d", a.Aborts),
			fmt.Sprintf("%d", a.AbortStallUs),
		})
	}
	var b strings.Builder
	b.WriteString("Placement scorecard: TPP loop vs all-local+swap vs static interleave\n")
	b.WriteString(textplot.Table(rows))
	fmt.Fprintf(&b, "churn: %d code-push restarts per arm\n", r.Restarts)
	if r.TPPWins() {
		b.WriteString("tpp holds the lowest pressure at equal-or-better savings: migration keeps the hot set local\n")
	}
	if r.AbortsAreFree() {
		fmt.Fprintf(&b, "%d promotions aborted under churn at zero host-visible stall (non-exclusive copies)\n", r.TPP.Aborts)
	}
	return b.String()
}

var _ Result = PlacementResult{}
