package workload

import (
	"math"
	"slices"
	"testing"

	"tmo/internal/cgroup"
	"tmo/internal/dist"
	"tmo/internal/vclock"
)

// tickPerRequest is App.Tick before idle runs: every request, idle or not,
// goes through serveRequest, and the CPU time is drawn inline. It is the
// reference TestIdleRunsMatchPerRequestLoop holds Tick to.
func (a *App) tickPerRequest(now vclock.Time, tick vclock.Duration) TickResult {
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
			f := 0.8 + 0.4*dist.Float64(a.src)
			jitter := vclock.Duration(float64(a.Profile.ServiceCPU) * f)
			cpu := vclock.Duration(float64(jitter) * frontEnd)
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

// TestIdleRunsMatchPerRequestLoop runs each app twice on hosts of its own,
// once under Tick and once under the per-request reference, through a load
// surge, a lull and a restart on a host tight enough to fault, and requires
// identical tick results, request counts, latency buckets and source state.
// The four apps cover touch classes alone (feed), lazy growth (web), a read
// stream (analytics) and a write stream (datacenter-tax).
func TestIdleRunsMatchPerRequestLoop(t *testing.T) {
	const tick = 100 * vclock.Millisecond
	for _, tc := range []struct {
		name string
		mib  int64 // host memory: under each footprint, so requests fault
	}{{"feed", 96}, {"web", 96}, {"analytics", 96}, {"datacenter-tax", 32}} {
		t.Run(tc.name, func(t *testing.T) {
			var apps [2]*App
			for i := range apps {
				mgr, h := newEnv(tc.mib)
				p := MustCatalog(tc.name)
				apps[i] = NewApp(p, h.NewGroup(nil, p.Name, cgroup.Workload, 0), mgr, 21)
				apps[i].Start(0)
			}
			app, ref := apps[0], apps[1]
			faults := 0
			now := vclock.Time(0)
			for i := 0; i < 400; i++ {
				for _, a := range apps {
					switch i {
					case 100:
						a.SetLoadFactor(2.5)
					case 200:
						a.SetLoadFactor(0.4)
					case 250:
						a.Restart(now)
					case 300:
						a.SetLoadFactor(1)
					}
				}
				got, want := app.Tick(now, tick), ref.tickPerRequest(now, tick)
				if got.Completed != want.Completed || got.SwapIns != want.SwapIns ||
					got.Refaults != want.Refaults || got.ColdReads != want.ColdReads ||
					!slices.Equal(got.Stalls, want.Stalls) {
					t.Fatalf("tick %d: Tick gives %+v, per-request loop %+v", i, got, want)
				}
				faults += got.Refaults + got.ColdReads
				now = now.Add(tick)
			}
			if faults == 0 {
				t.Fatal("no faults: the host no longer covers requests that stall")
			}
			if app.Completed() != ref.Completed() {
				t.Fatalf("Completed() = %d, per-request loop %d", app.Completed(), ref.Completed())
			}
			if app.latencies != ref.latencies {
				t.Fatal("latency buckets differ from the per-request loop's")
			}
			for i := 0; i < 8; i++ {
				if x, y := app.src.Uint64(), ref.src.Uint64(); x != y {
					t.Fatalf("draw %d after the run: %d, per-request loop %d", i, x, y)
				}
			}
		})
	}
}

// TestHugeLoadFinishesTick raises the load of a streaming and a growing
// app to 1e15, where page credit passes 2^53 at the first request, and to
// +Inf, and requires each request to take at most maxTouches stream and
// growth pages, keeping only a fraction of a page, and a whole tick to
// finish.
func TestHugeLoadFinishesTick(t *testing.T) {
	for _, name := range []string{"analytics", "web"} {
		for _, load := range []float64{1e15, math.Inf(1)} {
			mgr, h := newEnv(512)
			p := MustCatalog(name)
			app := NewApp(p, h.NewGroup(nil, p.Name, cgroup.Workload, 0), mgr, 3)
			app.Start(0)
			app.SetLoadFactor(load)
			for i := 0; i < 200; i++ {
				stream, lazy := app.streamCursor, app.lazyCursor
				var out requestOutcome
				app.serveRequest(0, &out)
				if n := len(app.streamPages); n > 0 {
					if moved := (app.streamCursor - stream + n) % n; moved > maxTouches {
						t.Fatalf("%s at load %v, request %d: %d stream pages, want at most %d",
							name, load, i, moved, maxTouches)
					}
				}
				if moved := app.lazyCursor - lazy; moved > maxTouches {
					t.Fatalf("%s at load %v, request %d: %d growth pages, want at most %d",
						name, load, i, moved, maxTouches)
				}
				if !(app.streamAccum < 1 && app.growAccum < 1) {
					t.Fatalf("%s at load %v, request %d: credit %v stream, %v growth left, want below one",
						name, load, i, app.streamAccum, app.growAccum)
				}
			}
			if res := app.Tick(0, 100*vclock.Millisecond); res.Completed == 0 {
				t.Fatalf("%s: no request completed at load %v", name, load)
			}
		}
	}
}
