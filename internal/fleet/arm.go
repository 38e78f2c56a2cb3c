package fleet

import (
	"runtime"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/core"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// Arm is one host of a multi-host measurement. TMO judges every claim by
// comparing identically seeded hosts that differ in one knob — offloading
// off or on, backend, device, controller — so an exhibit or an A/B pair is
// a list of arms plus a score function, and RunArms does the rest. Each arm
// carries its own seed and its own Senpai config pointer: arms share no
// mutable state and may run in any order.
type Arm struct {
	Opts core.Options
	// Services are added as cgroup.Workload containers, in order. The first
	// one's cgroup is the app group whose PSI and mm.Stat the window reports.
	Services []workload.Profile
	// Warm runs before the measurement window; Measure is its length.
	Warm, Measure vclock.Duration
	// Step, when positive, runs the window as max(1, Measure/Step) runs of
	// Step and averages the host's and each container's resident bytes
	// after each; zero runs it in one piece.
	Step vclock.Duration
	// Hook, if set, runs after the services are added and before Warm: it
	// attaches controllers or samplers, adds containers of other kinds
	// (appending them to h.Apps), or runs a custom warm-up schedule.
	Hook func(h *Host)
}

// Host is one arm's live system and its containers' apps, in order.
type Host struct {
	*core.System
	Apps []*workload.App
}

// Window is what an arm measured from the end of its warm-up to the end of
// its measurement window.
type Window struct {
	// RPS is requests completed per second, summed over the host's apps.
	RPS float64
	// AppPressure and RootPressure are the memory some-pressure of the app
	// group and of the whole machine.
	AppPressure, RootPressure float64
	// Stat is the app group's mm.Stat delta.
	Stat mm.GroupStat
	// MeanNet is NetResidentBytes averaged over the steps, and MeanPool and
	// MeanSSD the offloaded bytes held in compressed DRAM pools and on flash
	// (Step > 0 only).
	MeanNet, MeanPool, MeanSSD float64
	// Containers holds each container's share of a stepped window, in
	// h.Apps order (Step > 0 only).
	Containers []Container
	// OOMs counts overcommit events.
	OOMs int64
}

// Container is one container's means over a stepped window: anon- and
// file-resident bytes, memory.current, and the compressed pool attributed
// to it by its share of the host's swapped bytes; Completed is its
// completed-request delta.
type Container struct {
	Anon, File, Current, Pool float64
	Completed                 int64
}

// RunArms builds, warms up and measures every arm on Parallel with one
// worker per GOMAXPROCS and returns score's result for each, in arm order.
// score runs inside the worker while the arm's host is live, so no
// *core.System outlives its arm and at most that many hosts exist at once.
// Each arm is self-contained and seeded, and results are written by index,
// so the output cannot depend on scheduling.
func RunArms[T any](arms []Arm, score func(i int, h Host, w Window) T) []T {
	out := make([]T, len(arms))
	Parallel(len(arms), runtime.GOMAXPROCS(0), func(i int) {
		a := arms[i]
		h := a.build()
		h.Run(a.Warm)
		out[i] = score(i, h, h.measure(a.Measure, a.Step))
	})
	return out
}

// Baseline is the offloading-disabled arm savings are judged against: the
// services alone on a ModeOff host (opts supplies capacity, device and seed)
// for a quarter of the measured arms' warm-up. With no pool, its MeanNet is
// one reading of the services' summed memory.current. An exhibit puts it
// first in its arm list and judges the other arms' MeanNet against result 0.
func Baseline(opts core.Options, warm vclock.Duration, services ...workload.Profile) Arm {
	opts.Mode = core.ModeOff
	return Arm{
		Opts:     opts,
		Services: services,
		Measure:  warm / 4,
		Step:     warm / 4,
	}
}

// build assembles the arm's host: the system, its services, then the hook.
func (a Arm) build() Host {
	h := Host{System: core.New(a.Opts)}
	for _, p := range a.Services {
		h.Apps = append(h.Apps, h.AddProfile(p, cgroup.Workload))
	}
	if a.Hook != nil {
		a.Hook(&h)
	}
	return h
}

// measure runs the host for d and returns the window's deltas and rates. A
// positive step runs it as max(1, d/step) runs of step, averaging after
// each, and the rates are over the time that actually ran.
func (h Host) measure(d, step vclock.Duration) Window {
	r0 := h.Read()
	var w Window
	if step == 0 {
		h.Run(d)
	} else {
		// Each container's Completed starts at minus its count and ends as
		// the window's delta.
		w.Containers = make([]Container, len(h.Apps))
		for i, app := range h.Apps {
			w.Containers[i].Completed = -app.Completed()
		}
		steps := max(1, int(d/step))
		for range steps {
			h.Run(step)
			w.MeanNet += float64(h.NetResidentBytes())
			pool, ssd := SubstrateBytes(h.System)
			w.MeanPool += float64(pool)
			w.MeanSSD += float64(ssd)
			h.sampleContainers(w.Containers)
		}
		n := float64(steps)
		w.MeanNet /= n
		w.MeanPool /= n
		w.MeanSSD /= n
		for i := range w.Containers {
			c := &w.Containers[i]
			c.Anon /= n
			c.File /= n
			c.Current /= n
			c.Pool /= n
			c.Completed += h.Apps[i].Completed()
		}
		d = vclock.Duration(steps) * step
	}
	r1 := h.Read()
	w.RPS = float64(r1.Completed-r0.Completed) / d.Seconds()
	w.AppPressure = psi.WindowedPressure(r0.AppMem, r1.AppMem, d)
	w.RootPressure = psi.WindowedPressure(r0.RootMem, r1.RootMem, d)
	w.Stat = StatDelta(r0.Stat, r1.Stat)
	w.OOMs = r1.OOMs - r0.OOMs
	return w
}

// sampleContainers adds one step's readings of each container to cs, the
// compressed pool split by each container's share of swapped bytes.
func (h Host) sampleContainers(cs []Container) {
	pool := float64(h.Metrics().PoolBytes)
	var swapped int64
	for _, app := range h.Apps {
		swapped += app.Group.MM().SwappedBytes()
	}
	for i, app := range h.Apps {
		g := app.Group.MM()
		cs[i].Anon += float64(g.ResidentBytesOf(mm.Anon))
		cs[i].File += float64(g.ResidentBytesOf(mm.File))
		cs[i].Current += float64(app.Group.MemoryCurrent())
		if pool > 0 && swapped > 0 {
			cs[i].Pool += pool * float64(g.SwappedBytes()) / float64(swapped)
		}
	}
}

// SubstrateBytes splits a host's offloaded footprint into DRAM-resident
// (compressed pools) and flash-resident bytes.
func SubstrateBytes(sys *core.System) (pool, ssd int64) {
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

// Reading holds the cumulative counters a window differences.
type Reading struct {
	Completed       int64
	AppMem, RootMem vclock.Duration
	Stat            mm.GroupStat
	OOMs            int64
}

// Read takes a reading at the current instant; the first app's group is
// the app group.
func (h Host) Read() Reading {
	r := Reading{
		AppMem:  SomeTotal(h.System, h.Apps[0].Group, psi.Memory),
		RootMem: SomeTotal(h.System, h.Server.Hierarchy().Root(), psi.Memory),
		Stat:    h.Apps[0].Group.MM().Stat(),
		OOMs:    h.Server.Manager().OOMEvents(),
	}
	for _, a := range h.Apps {
		r.Completed += a.Completed()
	}
	return r
}

// SomeTotal returns g's some-stall total on r, synced to the host's clock.
// Syncing only integrates the tracker up to now; it leaves the run unchanged.
func SomeTotal(sys *core.System, g *cgroup.Group, r psi.Resource) vclock.Duration {
	tr := g.PSI()
	tr.Sync(sys.Server.Now())
	return tr.Total(r, psi.Some)
}

// StatDelta returns b - a, field by field.
func StatDelta(a, b mm.GroupStat) mm.GroupStat {
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
