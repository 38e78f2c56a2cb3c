package workload

import (
	"math"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/mm"
	"tmo/internal/vclock"
)

const pageSize = 4096

func newEnv(capacityMiB int64) (*mm.Manager, *cgroup.Hierarchy) {
	spec, _ := backend.DeviceByModel("C")
	fs := backend.NewFilesystem(backend.NewSSDDevice(spec, 11))
	mgr := mm.NewManager(mm.Config{
		CapacityBytes: capacityMiB * MiB,
		PageSize:      pageSize,
		FS:            fs,
		Policy:        mm.PolicyTMO,
	})
	return mgr, cgroup.NewHierarchy(mgr, 0)
}

func TestCatalogAllProfilesValid(t *testing.T) {
	for _, name := range CatalogNames() {
		p, err := Catalog(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Fatalf("%s: name mismatch %q", name, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestCatalogUnknown(t *testing.T) {
	if _, err := Catalog("nope"); err == nil {
		t.Fatalf("unknown profile accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("MustCatalog did not panic")
		}
	}()
	MustCatalog("nope")
}

func TestCatalogPaperParameters(t *testing.T) {
	web := MustCatalog("web")
	if web.Compressibility != 4.0 {
		t.Fatalf("web compressibility = %v, want 4x (§4.2)", web.Compressibility)
	}
	if !web.SelfThrottle || !web.AnonGrowth {
		t.Fatalf("web must self-throttle and grow anon lazily")
	}
	ml := MustCatalog("ml")
	if ml.Compressibility > 1.4 {
		t.Fatalf("ml compressibility = %v, want <= 1.4 (§4.1)", ml.Compressibility)
	}
	coldFrac := func(p Profile) float64 {
		n := len(p.Classes)
		return p.Classes[n-2].Frac + p.Classes[n-1].Frac
	}
	// Fig. 2: Feed has 30% cold memory (the last two classes).
	if cold := coldFrac(MustCatalog("feed")); math.Abs(cold-0.30) > 0.001 {
		t.Fatalf("feed cold fraction = %v, want 0.30", cold)
	}
	if coldB := coldFrac(MustCatalog("cache-b")); math.Abs(coldB-0.19) > 0.001 {
		t.Fatalf("cache-b cold fraction = %v, want 0.19 (81%% active)", coldB)
	}
}

func TestValidateRejectsBadProfiles(t *testing.T) {
	good := MustCatalog("feed")
	bad := good
	bad.Classes = []AccessClass{{Frac: 0.5, Period: vclock.Minute}}
	if err := bad.Validate(); err == nil {
		t.Fatalf("class sum != 1 accepted")
	}
	bad = good
	bad.AnonFraction = 1.5
	if err := bad.Validate(); err == nil {
		t.Fatalf("anon fraction > 1 accepted")
	}
	bad = good
	bad.Workers = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("zero workers accepted")
	}
	bad = good
	bad.Compressibility = 0.5
	if err := bad.Validate(); err == nil {
		t.Fatalf("compressibility < 1 accepted")
	}
	bad = good
	bad.FootprintBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatalf("zero footprint accepted")
	}
}

func TestNominalRPS(t *testing.T) {
	p := Profile{Workers: 4, ServiceCPU: 2 * vclock.Millisecond}
	if got := p.NominalRPS(); got != 2000 {
		t.Fatalf("nominal RPS = %v, want 2000", got)
	}
}

func TestScale(t *testing.T) {
	p := MustCatalog("analytics")
	s := p.Scale(0.5)
	if s.FootprintBytes != p.FootprintBytes/2 {
		t.Fatalf("footprint not scaled")
	}
	if s.StreamFileBytesPerSec != p.StreamFileBytesPerSec/2 {
		t.Fatalf("stream rate not scaled")
	}
}

func TestAppStartPopulatesResidentSet(t *testing.T) {
	mgr, h := newEnv(512)
	p := MustCatalog("feed")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 1)
	if g.MemoryCurrent() != 0 {
		t.Fatalf("memory consumed before Start")
	}
	app.Start(0)
	// Feed has no lazy growth: the whole footprint should be resident
	// (within rounding of class partitioning).
	if got := float64(g.MemoryCurrent()) / float64(p.FootprintBytes); got < 0.95 {
		t.Fatalf("resident after start = %.2f of footprint", got)
	}
}

func TestAppLazyAnonGrowth(t *testing.T) {
	mgr, h := newEnv(1024)
	p := MustCatalog("web")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 2)
	app.Start(0)
	startResident := g.MemoryCurrent()
	// Far less than the footprint must be resident initially: file cache
	// plus the initial anon fraction.
	if float64(startResident) >= 0.9*float64(p.FootprintBytes) {
		t.Fatalf("web resident at start = %d, expected lazy anon", startResident)
	}
	// Serve load; anon must grow.
	now := vclock.Time(0)
	tick := 100 * vclock.Millisecond
	for i := 0; i < 600; i++ { // one minute
		app.Tick(now, tick)
		now = now.Add(tick)
	}
	if g.MemoryCurrent() <= startResident {
		t.Fatalf("anon did not grow under load")
	}
}

func TestAppTickServesRequests(t *testing.T) {
	mgr, h := newEnv(512)
	p := MustCatalog("cache-a")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 3)
	app.Start(0)
	res := app.Tick(0, 100*vclock.Millisecond)
	// 4 workers x 100ms / ~2ms per request ~= 200 requests.
	if res.Completed < 100 || res.Completed > 300 {
		t.Fatalf("completed %d requests in one tick, want ~200", res.Completed)
	}
	if app.Completed() != int64(res.Completed) {
		t.Fatalf("completed counter mismatch")
	}
}

func TestAppThrottleReducesThroughput(t *testing.T) {
	mgr, h := newEnv(512)
	p := MustCatalog("cache-a")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 4)
	app.Start(0)
	full := app.Tick(0, 100*vclock.Millisecond).Completed
	app.SetAdmitted(0.25)
	quarter := app.Tick(vclock.Time(100*vclock.Millisecond), 100*vclock.Millisecond).Completed
	ratio := float64(quarter) / float64(full)
	if ratio < 0.15 || ratio > 0.40 {
		t.Fatalf("throttled/full = %v, want ~0.25", ratio)
	}
}

func TestSetAdmittedClamps(t *testing.T) {
	mgr, h := newEnv(64)
	p := MustCatalog("microservice-tax")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 5)
	app.SetAdmitted(7)
	if app.Admitted() != 1 {
		t.Fatalf("admitted not clamped to 1")
	}
	app.SetAdmitted(-1)
	if app.Admitted() != 0 {
		t.Fatalf("admitted not clamped to 0")
	}
}

func TestAppStallIntervalsWellFormed(t *testing.T) {
	mgr, h := newEnv(64) // tight memory so faults occur
	p := MustCatalog("analytics")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 6)
	app.Start(0)
	now := vclock.Time(0)
	tick := 100 * vclock.Millisecond
	sawStall := false
	for i := 0; i < 100; i++ {
		res := app.Tick(now, tick)
		for _, iv := range res.Stalls {
			sawStall = true
			if iv.End <= iv.Start {
				t.Fatalf("empty interval %+v", iv)
			}
			if iv.Start < now || iv.End > now.Add(tick) {
				t.Fatalf("interval %+v outside tick [%v,%v]", iv, now, now.Add(tick))
			}
			if !iv.Mem && !iv.IO {
				t.Fatalf("interval stalls nothing")
			}
		}
		now = now.Add(tick)
	}
	if !sawStall {
		t.Fatalf("no stalls observed under tight memory")
	}
}

func TestRequestLatencyQuantiles(t *testing.T) {
	mgr, h := newEnv(512)
	p := MustCatalog("cache-a")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 12)
	app.Start(0)
	now := vclock.Time(0)
	for i := 0; i < 100; i++ {
		app.Tick(now, 100*vclock.Millisecond)
		now = now.Add(100 * vclock.Millisecond)
	}
	p50 := app.RequestLatencyQuantile(0.5)
	p99 := app.RequestLatencyQuantile(0.99)
	// Service CPU is 2ms +-20%; with ample memory the tail should sit
	// near the jitter ceiling.
	if p50 < 1500*vclock.Microsecond || p50 > 2500*vclock.Microsecond {
		t.Fatalf("p50 = %v, want ~2ms", p50)
	}
	if p99 < p50 {
		t.Fatalf("p99 %v < p50 %v", p99, p50)
	}
	if p99 > 4*vclock.Millisecond {
		t.Fatalf("p99 = %v with no memory pressure", p99)
	}
}

func TestAppRestartResetsMemory(t *testing.T) {
	mgr, h := newEnv(512)
	p := MustCatalog("web")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 7)
	app.Start(0)
	now := vclock.Time(0)
	tick := 100 * vclock.Millisecond
	for i := 0; i < 1200; i++ { // two minutes of growth
		app.Tick(now, tick)
		now = now.Add(tick)
	}
	grown := g.MemoryCurrent()
	app.Restart(now)
	if app.Restarts() != 1 {
		t.Fatalf("restart count = %d", app.Restarts())
	}
	restarted := g.MemoryCurrent()
	if restarted >= grown {
		t.Fatalf("restart did not shrink memory: %d -> %d", grown, restarted)
	}
	// The app must keep serving after a restart.
	if res := app.Tick(now, tick); res.Completed == 0 {
		t.Fatalf("app dead after restart")
	}
}

func TestColdClassStaysCold(t *testing.T) {
	// After startup, pages in the never-touched class must not be
	// re-referenced by request traffic.
	mgr, h := newEnv(512)
	p := MustCatalog("feed")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 8)
	app.Start(0)
	now := vclock.Time(0)
	tick := 2 * vclock.Second
	for i := 0; i < 200; i++ { // ~6.7 virtual minutes
		app.Tick(now, tick)
		now = now.Add(tick)
	}
	// Survey coldness: feed's never-touched class (30% * 0.6 = 18%) should
	// show up as untouched past 5 minutes.
	h5 := mm.Coldness(now, app.AllPages(), []vclock.Duration{5 * vclock.Minute})
	if h5[1] < 0.10 {
		t.Fatalf("cold fraction after load = %v, want >= 0.10", h5[1])
	}
}

// newSteadyApp starts analytics (streaming reads, so every tick faults and
// places IO stalls) on an ample host at half a CPU (so every tick also
// places CPU waits) and warms it up until the app's buffers stop growing.
func newSteadyApp(tb testing.TB) (*App, vclock.Time) {
	tb.Helper()
	mgr, h := newEnv(512)
	p := MustCatalog("analytics")
	g := h.NewGroup(nil, p.Name, cgroup.Workload, 0)
	app := NewApp(p, g, mgr, 9)
	app.Start(0)
	app.SetCPUShare(0.5)
	now := vclock.Time(0)
	for i := 0; i < 50; i++ {
		app.Tick(now, 100*vclock.Millisecond)
		now = now.Add(100 * vclock.Millisecond)
	}
	return app, now
}

func TestAppTickSteadyStateAllocatesNothing(t *testing.T) {
	app, now := newSteadyApp(t)
	sawIO := false
	allocs := testing.AllocsPerRun(100, func() {
		res := app.Tick(now, 100*vclock.Millisecond)
		for _, iv := range res.Stalls {
			sawIO = sawIO || iv.IO
		}
		now = now.Add(100 * vclock.Millisecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state App.Tick allocates %v times per call, want 0", allocs)
	}
	if !sawIO {
		t.Fatal("no IO stalls placed: the test no longer covers placeStalls")
	}
}

func BenchmarkAppTick(b *testing.B) {
	app, now := newSteadyApp(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app.Tick(now, 100*vclock.Millisecond)
		now = now.Add(100 * vclock.Millisecond)
	}
}
