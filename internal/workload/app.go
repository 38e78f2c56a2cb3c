package workload

import (
	"math"
	"math/rand/v2"

	"tmo/internal/cgroup"
	"tmo/internal/dist"
	"tmo/internal/metrics"
	"tmo/internal/mm"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// StallInterval is one contiguous span a worker spent stalled during a tick,
// with the PSI resources it stalls. The simulation layer merges intervals
// from all apps in time order and feeds them to the cgroup PSI trackers.
type StallInterval struct {
	Start, End vclock.Time
	Mem, IO    bool
}

// TickResult reports what an app did during one simulation tick.
type TickResult struct {
	// Completed is the number of requests finished this tick.
	Completed int
	// Stalls lists the PSI stall intervals incurred. It aliases the app's
	// reused buffer and is valid until the app's next Tick.
	Stalls []StallInterval
	// Faults breaks down the tick's page faults.
	SwapIns, Refaults, ColdReads int
}

// App is a running instance of a workload profile bound to a cgroup.
type App struct {
	Profile Profile
	Group   *cgroup.Group

	mgr *mm.Manager
	// src is the app's random stream. The request path draws from it
	// directly (dist.Uint64N, dist.Float64); rng wraps the same source for
	// Shuffle and the per-tick phase shift.
	src *dist.PCG
	rng *rand.Rand

	classPages [][]mm.PageID
	// touch schedules the classes a request can touch.
	touch touchSchedule

	anonLazy       []mm.PageID
	lazyCursor     int
	growPerRequest float64
	growAccum      float64

	streamPages      []mm.PageID
	streamCursor     int
	streamPerRequest float64
	streamAccum      float64

	fileFootprintPages int64

	// bloatPages is extra anonymous memory injected by the chaos engine
	// (a leaking sidecar); it is resident but never touched again, so it
	// is exactly the cold memory an offloading controller should absorb.
	bloatPages []mm.PageID

	carry    []vclock.Duration // per-worker overrun debt
	stalls   []StallInterval   // Tick's reused TickResult.Stalls buffer
	admitted float64
	load     float64 // demand multiplier on per-request touch rates
	compress float64 // current page compressibility (chaos can drift it)

	lastShift vclock.Time

	killed bool

	// latencies counts every request's wall time (CPU + stalls) for
	// tail-latency reporting; the paper's Web tier throttles on exactly this
	// signal. The counts survive Restart.
	latencies metrics.Histogram

	completed int64
	restarts  int64
}

// maxCarryTicks caps a worker's overrun debt at that many ticks, so one
// pathological tick cannot silence a worker for the rest of a run.
const maxCarryTicks = 4

// NewApp builds an app over profile p in group g, creating its pages. Pages
// consume no memory until Start populates them.
func NewApp(p Profile, g *cgroup.Group, mgr *mm.Manager, seed uint64) *App {
	src := dist.NewPCG(seed)
	a := &App{
		Profile:  p,
		Group:    g,
		mgr:      mgr,
		src:      src,
		rng:      rand.New(src),
		admitted: 1,
		load:     1,
		compress: p.Compressibility,
		carry:    make([]vclock.Duration, p.Workers),
	}
	totalPages := p.FootprintBytes / mm.PageSize
	nominal := p.NominalRPS()

	a.classPages = make([][]mm.PageID, len(p.Classes))
	for i, c := range p.Classes {
		n := int(float64(totalPages) * c.Frac)
		if n == 0 {
			continue
		}
		anonN := int(float64(n) * p.AnonFraction)
		fileN := n - anonN
		pages := mgr.NewPages(g.MM(), mm.Anon, anonN, p.Compressibility)
		pages = append(pages, mgr.NewPages(g.MM(), mm.File, fileN, p.Compressibility)...)
		// Interleave anon and file deterministically so class scans mix
		// both types.
		a.rng.Shuffle(len(pages), func(x, y int) { pages[x], pages[y] = pages[y], pages[x] })
		a.classPages[i] = pages
		a.fileFootprintPages += int64(fileN)
		if c.Period > 0 {
			a.touch.add(pages, float64(n)/(c.Period.Seconds()*nominal), a.load)
		}
	}

	a.touch.reset()

	if p.StreamFileBytesPerSec > 0 && p.StreamSetBytes > 0 {
		n := int(p.StreamSetBytes / mm.PageSize)
		a.streamPages = mgr.NewPages(g.MM(), mm.File, n, p.Compressibility)
		a.streamPerRequest = float64(p.StreamFileBytesPerSec) / float64(mm.PageSize) / nominal
	}
	return a
}

// Start populates the app's initial resident set at time now: the full file
// cache (the paper's Web loads its filesystem working set up front) and
// either all anonymous memory or, with AnonGrowth, the initial fraction.
func (a *App) Start(now vclock.Time) {
	p := a.Profile
	a.anonLazy = a.anonLazy[:0]
	a.lazyCursor = 0
	for _, pages := range a.classPages {
		for _, pg := range pages {
			if a.mgr.Type(pg) == mm.Anon && p.AnonGrowth {
				a.anonLazy = append(a.anonLazy, pg)
				continue
			}
			a.mgr.Touch(now, pg)
		}
	}
	if p.AnonGrowth {
		// Unbias lazy growth across temperature classes: pages fault in
		// over time from every class, not hot-first.
		a.rng.Shuffle(len(a.anonLazy), func(x, y int) {
			a.anonLazy[x], a.anonLazy[y] = a.anonLazy[y], a.anonLazy[x]
		})
		initial := int(float64(len(a.anonLazy)) * p.InitialAnonFrac)
		for _, pg := range a.anonLazy[:initial] {
			a.mgr.Touch(now, pg)
		}
		a.lazyCursor = initial
		// Growth pace: remaining pages over AnonGrowthPeriod at nominal
		// load.
		remaining := float64(len(a.anonLazy) - initial)
		if p.AnonGrowthPeriod > 0 && remaining > 0 {
			a.growPerRequest = remaining / (p.AnonGrowthPeriod.Seconds() * p.NominalRPS())
		}
	}
}

// Restart models a code-push restart: all memory is dropped and the startup
// population repeats. Figs. 11 and 13 both include such an event.
func (a *App) Restart(now vclock.Time) {
	for _, pages := range a.classPages {
		a.mgr.FreePages(pages)
	}
	a.mgr.FreePages(a.streamPages)
	a.mgr.FreePages(a.bloatPages)
	a.bloatPages = nil
	a.touch.reset()
	for i := range a.carry {
		a.carry[i] = 0
	}
	a.growAccum, a.streamAccum = 0, 0
	a.streamCursor = 0
	a.restarts++
	a.Start(now)
}

// SetAdmitted sets the app's admission factor in [floor, 1]; the simulation
// layer computes it from host free memory for self-throttling profiles.
func (a *App) SetAdmitted(f float64) {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	a.admitted = f
}

// Admitted returns the current admission factor.
func (a *App) Admitted() float64 { return a.admitted }

// SetLoadFactor scales the app's per-request memory demand (page touches,
// lazy growth, streaming) by f: a traffic surge touches more of the working
// set per unit time, a lull touches less. Unlike SetAdmitted it does not
// change how many requests the workers serve, so RPS stays comparable
// across the perturbation and the effect is purely on memory heat. A class's
// touches saturate at maxTouches per request, however large f is.
func (a *App) SetLoadFactor(f float64) {
	if f < 0 {
		f = 0
	}
	a.load = f
	a.touch.setLoad(f)
}

// SetCompressibility rewrites the compressibility of every page the app
// owns (and of future bloat pages) to ratio, modeling content drift — e.g.
// a cache refilling with already-compressed media. Pages currently held in
// a compressed pool keep their stored size until they cycle through it.
func (a *App) SetCompressibility(ratio float64) {
	if ratio < 1 {
		ratio = 1
	}
	a.compress = ratio
	for _, pages := range a.classPages {
		a.mgr.SetCompressibility(pages, ratio)
	}
	a.mgr.SetCompressibility(a.streamPages, ratio)
	a.mgr.SetCompressibility(a.bloatPages, ratio)
}

// Compressibility returns the app's current page compressibility.
func (a *App) Compressibility() float64 { return a.compress }

// SetBloat grows or shrinks the app's injected cold anonymous memory to
// bytes, touching new pages once so they are resident. The chaos engine
// drives this to model a leaking or bloated sidecar.
func (a *App) SetBloat(now vclock.Time, bytes int64) {
	if a.killed {
		return
	}
	if bytes < 0 {
		bytes = 0
	}
	target := int(bytes / mm.PageSize)
	if target > len(a.bloatPages) {
		grown := a.mgr.NewPages(a.Group.MM(), mm.Anon, target-len(a.bloatPages), a.compress)
		for _, pg := range grown {
			a.mgr.Touch(now, pg)
		}
		a.bloatPages = append(a.bloatPages, grown...)
	} else if target < len(a.bloatPages) {
		a.mgr.FreePages(a.bloatPages[target:])
		a.bloatPages = a.bloatPages[:target]
	}
}

// Completed returns the total number of requests served.
func (a *App) Completed() int64 { return a.completed }

// EnableTelemetry registers the app's request wall times (CPU plus fault
// stalls) with reg as workload.request_latency_us{app}: the tail-latency
// signal production tiers hold their SLOs against.
func (a *App) EnableTelemetry(reg *telemetry.Registry) {
	reg.Histogram("workload.request_latency_us", &a.latencies, telemetry.Label{Key: "app", Value: a.Profile.Name})
}

// Restarts returns how many times the app restarted.
func (a *App) Restarts() int64 { return a.restarts }

// AllPages returns every page of the app's footprint (excluding the stream
// window); the Fig. 2 coldness survey runs over these.
func (a *App) AllPages() []mm.PageID {
	var out []mm.PageID
	for _, pages := range a.classPages {
		out = append(out, pages...)
	}
	return out
}

// requestOutcome accumulates the stall composition of one request.
type requestOutcome struct {
	memOnly, both, ioOnly vclock.Duration
	swapIns, refaults     int
	coldReads             int
}

func (o *requestOutcome) absorb(r mm.TouchResult) {
	if r.DirectReclaimStall > 0 {
		o.memOnly += r.DirectReclaimStall
	}
	switch {
	case r.MemStall && r.IOStall:
		o.both += r.Latency
	case r.MemStall:
		o.memOnly += r.Latency
	case r.IOStall:
		o.ioOnly += r.Latency
	}
	if r.SwapIn {
		o.swapIns++
	}
	if r.Refault {
		o.refaults++
	}
	if r.ColdRead {
		o.coldReads++
	}
}

// stall returns the outcome's total stall time.
func (o *requestOutcome) stall() vclock.Duration { return o.memOnly + o.both + o.ioOnly }

// growStep returns what lazy growth adds to its page credit per request:
// growPerRequest times the load, or 0 once every lazy page is resident.
func (a *App) growStep() float64 {
	if a.growPerRequest > 0 && a.lazyCursor < len(a.anonLazy) {
		return a.growPerRequest * a.load
	}
	return 0
}

// streamStep returns what streaming adds to its page credit per request:
// streamPerRequest times the load, or 0 for an app with no stream.
func (a *App) streamStep() float64 {
	if a.streamPerRequest > 0 && len(a.streamPages) > 0 {
		return a.streamPerRequest * a.load
	}
	return 0
}

// wholePages takes the whole pages a page credit owes: ⌊acc⌋, at most
// maxTouches, leaving acc − ⌊acc⌋. Below 2^53 each subtraction of one is
// exact, so this leaves what a `for acc >= 1 { acc-- }` loop would; unlike
// that loop it ends for any credit, however large a load made it. NaN owes
// nothing.
func wholePages(acc *float64) int {
	if !(*acc >= 1) {
		return 0
	}
	w := math.Floor(*acc)
	if math.IsInf(w, 1) {
		*acc = 0
		return maxTouches
	}
	*acc -= w
	return int(min(w, maxTouches))
}

// serveRequest simulates the page accesses of one request at time now,
// accumulating their outcome into out. Lazy growth and streaming add their
// step to their page credit even when the step is 0 (growth done, or no
// stream): a credit is a sum of non-negative steps less whole pages, never
// −0, so adding 0 leaves it as it was, below one.
func (a *App) serveRequest(now vclock.Time, out *requestOutcome) {
	if a.touch.next() {
		a.touch.settle()
		for i := range a.touch.classes {
			t := &a.touch.classes[i]
			for k := 0; k < t.owed; k++ {
				pg := t.pages[dist.Uint64N(a.src, uint64(len(t.pages)))]
				out.absorb(a.mgr.Touch(now, pg))
			}
		}
	}
	// Lazy anonymous growth.
	a.growAccum += a.growStep()
	for n := wholePages(&a.growAccum); n > 0 && a.lazyCursor < len(a.anonLazy); n-- {
		out.absorb(a.mgr.Touch(now, a.anonLazy[a.lazyCursor]))
		a.lazyCursor++
	}
	// File streaming: fresh content replaces the oldest stream slot. A
	// consuming stream (scans) reads the new content from storage; a
	// producing stream (logs) writes it, leaving the page dirty so its
	// eviction costs writeback.
	a.streamAccum += a.streamStep()
	for n := wholePages(&a.streamAccum); n > 0; n-- {
		i := a.streamCursor
		pg := a.streamPages[i]
		a.streamCursor = (i + 1) % len(a.streamPages)
		a.mgr.FreePages(a.streamPages[i : i+1])
		if a.Profile.StreamIsWrites {
			out.absorb(a.mgr.TouchWrite(now, pg))
		} else {
			out.absorb(a.mgr.Touch(now, pg))
		}
	}
}

// Kill terminates the app the way a userspace OOM killer would: all of its
// memory is released immediately and its tasks leave the PSI domain. A
// killed app serves nothing until Revive.
func (a *App) Kill(now vclock.Time) {
	if a.killed {
		return
	}
	a.killed = true
	for i := 0; i < a.Profile.Workers; i++ {
		a.Group.TaskStop(now)
	}
	for _, pages := range a.classPages {
		a.mgr.FreePages(pages)
	}
	a.mgr.FreePages(a.streamPages)
	a.mgr.FreePages(a.bloatPages)
	a.bloatPages = nil
	for i := range a.carry {
		a.carry[i] = 0
	}
}

// Killed reports whether the app is currently dead.
func (a *App) Killed() bool { return a.killed }

// Revive restarts a killed app (the container gets rescheduled): tasks
// rejoin the PSI domain and the startup population repeats.
func (a *App) Revive(now vclock.Time) {
	if !a.killed {
		return
	}
	a.killed = false
	for i := 0; i < a.Profile.Workers; i++ {
		a.Group.TaskStart(now)
	}
	a.restarts++
	a.Start(now)
}

// shiftPhase drifts the working set: a fraction of the hottest class trades
// places with the coldest class, so previously-offloaded memory turns hot
// (swap-ins) and previously-hot memory goes cold (future swap-outs).
func (a *App) shiftPhase(now vclock.Time) {
	p := a.Profile
	if p.PhaseShiftPeriod <= 0 || p.PhaseShiftFrac <= 0 {
		return
	}
	if now.Sub(a.lastShift) < p.PhaseShiftPeriod {
		return
	}
	a.lastShift = now
	hot, cold := a.classPages[0], a.classPages[len(a.classPages)-1]
	if len(hot) == 0 || len(cold) == 0 {
		return
	}
	n := int(float64(len(hot)) * p.PhaseShiftFrac)
	if n > len(cold) {
		n = len(cold)
	}
	for i := 0; i < n; i++ {
		hi := a.rng.IntN(len(hot))
		ci := a.rng.IntN(len(cold))
		hot[hi], cold[ci] = cold[ci], hot[hi]
	}
}

// frontEndFactor computes the CPU inflation from bytecode file-cache misses
// (§4.4): 1.0 while the resident file cache covers the front-end floor,
// rising linearly with the deficit below it.
func (a *App) frontEndFactor() float64 {
	p := a.Profile
	if p.FrontEndPenaltyK <= 0 || p.FrontEndFileFloor <= 0 || a.fileFootprintPages == 0 {
		return 1
	}
	frac := float64(a.Group.MM().ResidentBytesOf(mm.File)) /
		float64(a.fileFootprintPages*mm.PageSize)
	if deficit := p.FrontEndFileFloor - frac; deficit > 0 {
		return 1 + p.FrontEndPenaltyK*deficit/p.FrontEndFileFloor
	}
	return 1
}

// Tick advances the app by one simulation tick starting at now. Each worker
// serves requests until its admitted share of the tick is used; fault
// stalls lengthen requests and are reported as PSI intervals. A worker
// alternates an idle run (idleRun) with one request at which a touch class,
// lazy growth or streaming fires, which serveRequest serves.
func (a *App) Tick(now vclock.Time, tick vclock.Duration) TickResult {
	if a.killed {
		return TickResult{}
	}
	a.shiftPhase(now)
	var res TickResult
	a.stalls = a.stalls[:0]
	frontEnd := a.frontEndFactor()
	budget := vclock.Duration(float64(tick) * a.admitted)
	for w := 0; w < a.Profile.Workers; w++ {
		busy := a.carry[w]
		a.carry[w] = 0
		var tot requestOutcome
		for busy < budget {
			var idle int
			busy, idle = a.idleRun(busy, budget, frontEnd)
			res.Completed += idle
			if busy >= budget {
				break
			}
			cpu := requestCPU(dist.Float64(a.src), float64(a.Profile.ServiceCPU), frontEnd)
			stalled, refaults := tot.stall(), tot.refaults
			a.serveRequest(now.Add(busy), &tot)
			cpu += vclock.Duration(tot.refaults-refaults) * a.Profile.RefaultCPUPenalty
			wall := cpu + tot.stall() - stalled
			a.latencies.Record(int64(wall))
			busy += wall
			a.completed++
			res.Completed++
		}
		if busy > tick {
			over := busy - tick
			if lim := vclock.Duration(maxCarryTicks) * tick; over > lim {
				over = lim
			}
			a.carry[w] = over
		}
		res.SwapIns += tot.swapIns
		res.Refaults += tot.refaults
		res.ColdReads += tot.coldReads
		a.placeStalls(now, tick, tot)
	}
	res.Stalls = a.stalls
	return res
}

// placeStalls converts a worker's per-tick stall totals into concrete
// intervals inside the tick, placed at a random offset so that overlaps
// between workers (the PSI full condition) occur naturally, and appends
// them to a.stalls.
func (a *App) placeStalls(now vclock.Time, tick vclock.Duration, o requestOutcome) {
	total := o.stall()
	if total <= 0 {
		return
	}
	if total > tick {
		// Severe overload: scale the composition to fill the tick.
		f := float64(tick) / float64(total)
		o.memOnly = vclock.Duration(float64(o.memOnly) * f)
		o.both = vclock.Duration(float64(o.both) * f)
		o.ioOnly = tick - o.memOnly - o.both
		total = tick
	}
	slack := tick - total
	off := vclock.Duration(0)
	if slack > 0 {
		off = vclock.Duration(dist.Uint64N(a.src, uint64(slack)+1))
	}
	t := now.Add(off)
	t = a.appendStall(t, o.memOnly, true, false)
	t = a.appendStall(t, o.both, true, true)
	a.appendStall(t, o.ioOnly, false, true)
}

// appendStall appends a stall of length d starting at t, if d is positive,
// and returns where the next one starts.
func (a *App) appendStall(t vclock.Time, d vclock.Duration, mem, io bool) vclock.Time {
	if d <= 0 {
		return t
	}
	a.stalls = append(a.stalls, StallInterval{Start: t, End: t.Add(d), Mem: mem, IO: io})
	return t.Add(d)
}

// requestCPU returns a request's CPU time for a uniform draw u in [0, 1):
// serviceCPU within ±20%, times the front-end factor. Front-end-bound
// workloads run slower when their bytecode misses the file cache (§4.4);
// the penalty is CPU time, not a stall.
func requestCPU(u, serviceCPU, frontEnd float64) vclock.Duration {
	return vclock.Duration(float64(vclock.Duration(serviceCPU*(0.8+0.4*u))) * frontEnd)
}

// idleRun serves, from busy on and while busy is below budget, the
// requests before the next one at which a touch class is due or lazy
// growth or streaming reaches a whole page. Such a request touches nothing,
// so its wall time is its CPU time: one draw and one latency bucket. Each
// request adds the growth and streaming steps to copies of their credits,
// and the run ends before the first request at which either copy reaches
// one, leaving that request to serveRequest. The source, busy time, count
// and credits live in locals and are stored back once, and every draw and
// float addition is the one serveRequest's path would make. It returns the
// worker's busy time and the requests served.
func (a *App) idleRun(busy, budget vclock.Duration, frontEnd float64) (vclock.Duration, int) {
	src := *a.src
	cpu := float64(a.Profile.ServiceCPU)
	grow, stream := a.growAccum, a.streamAccum
	growStep, streamStep := a.growStep(), a.streamStep()
	// Between requests the touch schedule's due request is a later one,
	// so limit, the requests before it, cannot wrap.
	n, limit := uint64(0), a.touch.due-a.touch.reqs-1
	for ; n < limit && busy < budget; n++ {
		g, s := grow+growStep, stream+streamStep
		if g >= 1 || s >= 1 {
			break
		}
		grow, stream = g, s
		wall := requestCPU(dist.Float64(&src), cpu, frontEnd)
		a.latencies.Record(int64(wall))
		busy += wall
	}
	*a.src = src
	a.growAccum, a.streamAccum = grow, stream
	a.touch.reqs += n
	a.completed += int64(n)
	return busy, int(n)
}
