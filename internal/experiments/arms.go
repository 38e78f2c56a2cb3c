package experiments

import (
	"runtime"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// arm is one host of a multi-host exhibit. TMO judges every claim by
// comparing identically seeded hosts that differ in one knob — offloading
// off or on, backend, device, controller — so an exhibit is a list of arms
// plus a score function, and runArms does the rest. Each arm carries its own
// seed and its own Senpai/placement config pointers: arms share no mutable
// state and may run in any order.
type arm struct {
	opts core.Options
	// services are added as cgroup.Workload containers, in order. The first
	// one's cgroup is the app group whose PSI and mm.Stat the window reports.
	services []workload.Profile
	// warm runs before the measurement window; measure is its length.
	warm, measure vclock.Duration
	// step, when positive, runs the window as measure/step runs of step and
	// averages NetResidentBytes after each; zero runs it in one piece.
	step vclock.Duration
	// hook, if set, runs after the services are added and before warm: it
	// attaches controllers or samplers, adds containers of other kinds
	// (appending them to h.apps), or runs a custom warm-up schedule.
	hook func(h *host)
}

// host is one arm's live system and its containers' apps, in order.
type host struct {
	*core.System
	apps []*workload.App
}

// window is what an arm measured from the end of its warm-up to the end of
// its measurement window.
type window struct {
	// rps is requests completed per second, summed over the host's apps.
	rps float64
	// appPressure and rootPressure are the memory some-pressure of the app
	// group and of the whole machine.
	appPressure, rootPressure float64
	// stat is the app group's mm.Stat delta.
	stat mm.GroupStat
	// meanNet is NetResidentBytes averaged over the steps, and meanPool and
	// meanSSD the offloaded bytes held in compressed DRAM pools and on flash
	// (step > 0 only).
	meanNet, meanPool, meanSSD float64
	// ooms counts overcommit events.
	ooms int64
}

// runArms runs every arm on fleet.Parallel with one worker per GOMAXPROCS
// and returns score's result for each, in arm order. score runs inside the
// worker while the arm's host is live, so no *core.System outlives its arm
// and at most that many hosts exist at once. Each arm is self-contained and
// seeded, and results are written by index, so the output cannot depend on
// scheduling.
func runArms[T any](arms []arm, score func(i int, h host, w window) T) []T {
	out := make([]T, len(arms))
	fleet.Parallel(len(arms), runtime.GOMAXPROCS(0), func(i int) {
		h, w := arms[i].run()
		out[i] = score(i, h, w)
	})
	return out
}

// windowOf is the score that keeps just the window.
func windowOf(_ int, _ host, w window) window { return w }

// baseline is the offloading-disabled arm savings are judged against: the
// services alone on a ModeOff host (opts supplies capacity, device and seed)
// for a quarter of the measured arms' warm-up. With no pool, its meanNet is
// one reading of the services' summed memory.current. An exhibit puts it
// first in its arm list and judges the other arms' meanNet against result 0.
func baseline(opts core.Options, warm vclock.Duration, services ...workload.Profile) arm {
	opts.Mode = core.ModeOff
	return arm{
		opts:     opts,
		services: services,
		measure:  warm / 4,
		step:     warm / 4,
	}
}

// run builds the arm's host, warms it up, and measures its window.
func (a arm) run() (host, window) {
	h := host{System: core.New(a.opts)}
	for _, p := range a.services {
		h.apps = append(h.apps, h.AddProfile(p, cgroup.Workload))
	}
	if a.hook != nil {
		a.hook(&h)
	}
	h.Run(a.warm)
	r0 := h.read()
	var w window
	if a.step == 0 {
		h.Run(a.measure)
	} else {
		steps := int(a.measure / a.step)
		for i := 0; i < steps; i++ {
			h.Run(a.step)
			w.meanNet += float64(h.NetResidentBytes())
			pool, ssd := substrateBytes(h.System)
			w.meanPool += float64(pool)
			w.meanSSD += float64(ssd)
		}
		w.meanNet /= float64(steps)
		w.meanPool /= float64(steps)
		w.meanSSD /= float64(steps)
	}
	r1 := h.read()
	w.rps = float64(r1.completed-r0.completed) / a.measure.Seconds()
	w.appPressure = psi.WindowedPressure(r0.appMem, r1.appMem, a.measure)
	w.rootPressure = psi.WindowedPressure(r0.rootMem, r1.rootMem, a.measure)
	w.stat = statDelta(r0.stat, r1.stat)
	w.ooms = r1.ooms - r0.ooms
	return h, w
}

// substrateBytes splits a host's offloaded footprint into DRAM-resident
// (compressed pools) and flash-resident bytes.
func substrateBytes(sys *core.System) (pool, ssd int64) {
	if sys.Chain == nil {
		return 0, 0
	}
	for i, spec := range sys.Chain.TierSpecs() {
		st := sys.Chain.TierStats(i)
		if spec.Kind == backend.TierSSD {
			ssd += st.StoredBytes
		} else {
			pool += st.StoredBytes
		}
	}
	return pool, ssd
}

// reading holds the cumulative counters a window differences.
type reading struct {
	completed       int64
	appMem, rootMem vclock.Duration
	stat            mm.GroupStat
	ooms            int64
}

// read takes a reading at the current instant.
func (h host) read() reading {
	r := reading{
		appMem:  someTotal(h.System, h.apps[0].Group, psi.Memory),
		rootMem: someTotal(h.System, h.Server.Hierarchy().Root(), psi.Memory),
		stat:    h.apps[0].Group.MM().Stat(),
		ooms:    h.Server.Manager().OOMEvents(),
	}
	for _, a := range h.apps {
		r.completed += a.Completed()
	}
	return r
}

// statDelta returns b - a, field by field.
func statDelta(a, b mm.GroupStat) mm.GroupStat {
	return mm.GroupStat{
		Refaults:       b.Refaults - a.Refaults,
		ColdFileReads:  b.ColdFileReads - a.ColdFileReads,
		SwapIns:        b.SwapIns - a.SwapIns,
		SwapOuts:       b.SwapOuts - a.SwapOuts,
		FileEvictions:  b.FileEvictions - a.FileEvictions,
		FileWritebacks: b.FileWritebacks - a.FileWritebacks,
		PagesScanned:   b.PagesScanned - a.PagesScanned,
		Demotions:      b.Demotions - a.Demotions,
		Promotions:     b.Promotions - a.Promotions,
		DirectReclaims: b.DirectReclaims - a.DirectReclaims,
		OOMEvents:      b.OOMEvents - a.OOMEvents,
	}
}
