package gswap

import (
	"testing"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/mm"
	"tmo/internal/sim"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

const (
	pageSize = 4096
	MiB      = 1 << 20
)

func newEnv() (*mm.Manager, *cgroup.Group) {
	spec, _ := backend.DeviceByModel("C")
	dev := backend.NewSSDDevice(spec, 41)
	z := backend.NewTierChain([]backend.TierSpec{{Kind: backend.TierZswap, Codec: backend.CodecZstd,
		CapacityBytes: 1 << 30}}, nil, 0, 42)
	mgr := mm.NewManager(mm.Config{
		CapacityBytes: 512 * MiB,
		Swap:          z,
		FS:            backend.NewFilesystem(dev),
		Policy:        mm.PolicyTMO,
	})
	h := cgroup.NewHierarchy(mgr, 0)
	return mgr, h.NewGroup(nil, "app", cgroup.Workload, 0)
}

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig(100)
	if c.Interval != 6*vclock.Second || c.TargetPromotionsPerSec != 100 || c.StepFrac <= 0 {
		t.Fatalf("default config = %+v", c)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("zero interval accepted")
		}
	}()
	New(Config{})
}

func TestReclaimsWhileBelowTarget(t *testing.T) {
	mgr, g := newEnv()
	pages := mgr.NewPages(g.MM(), mm.File, 10000, 1)
	for _, p := range pages {
		mgr.Touch(0, p)
	}
	c := New(DefaultConfig(50))
	c.AddTarget(g)
	c.Tick(0)
	if c.runs != 0 {
		t.Fatalf("priming tick acted")
	}
	before := g.MemoryCurrent()
	c.Tick(vclock.Time(6 * vclock.Second))
	if c.runs != 1 {
		t.Fatalf("runs = %d", c.runs)
	}
	if g.MemoryCurrent() >= before {
		t.Fatalf("no reclaim below promotion target")
	}
	if c.targets[0].rate != 0 {
		t.Fatalf("promotion rate = %v, want 0", c.targets[0].rate)
	}
}

func TestHoldsWhileAboveTarget(t *testing.T) {
	mgr, g := newEnv()
	anon := mgr.NewPages(g.MM(), mm.Anon, 2000, 2)
	for _, p := range anon {
		mgr.Touch(0, p)
	}
	// Offload some pages, then swap many back in to drive the measured
	// promotion rate above target.
	mgr.ProactiveReclaim(vclock.Time(vclock.Second), g.MM(), 500*pageSize)
	c := New(DefaultConfig(10)) // low target: 10 promos/sec
	c.AddTarget(g)
	c.Tick(vclock.Time(vclock.Second))
	swappedBack := 0
	for _, p := range anon {
		if mgr.State(p) == mm.Offloaded {
			mgr.Touch(vclock.Time(2*vclock.Second), p)
			swappedBack++
			if swappedBack == 120 {
				break
			}
		}
	}
	if swappedBack < 120 {
		t.Fatalf("only %d pages were offloaded", swappedBack)
	}
	before := g.MemoryCurrent()
	c.Tick(vclock.Time(7 * vclock.Second)) // rate = 120/6s = 20/s > 10/s
	if got := c.targets[0].rate; got < 15 {
		t.Fatalf("promotion rate = %v, want ~20", got)
	}
	if g.MemoryCurrent() != before {
		t.Fatalf("reclaimed despite promotion rate above target")
	}
}

// TestConvergesOnWorkload: end-to-end, the baseline controller offloads a
// workload's cold memory until the promotion rate approaches its target.
func TestConvergesOnWorkload(t *testing.T) {
	spec, _ := backend.DeviceByModel("C")
	dev := backend.NewSSDDevice(spec, 43)
	z := backend.NewTierChain([]backend.TierSpec{{Kind: backend.TierZswap, Codec: backend.CodecZstd,
		CapacityBytes: 1 << 30}}, nil, 0, 44)
	s := sim.NewServer(sim.Config{
		CapacityBytes: 512 * MiB,
		Device:        dev,
		Swap:          z,
		Policy:        mm.PolicyTMO,
	})
	app := s.AddApp(workload.MustCatalog("feed"), cgroup.Workload, nil, 45)
	c := New(Config{
		Interval:               6 * vclock.Second,
		TargetPromotionsPerSec: 20,
		StepFrac:               0.01,
	})
	c.AddTarget(app.Group)
	s.OnTick(c.Tick)

	s.Run(2 * vclock.Minute)
	before := app.Group.MemoryCurrent()
	s.Run(15 * vclock.Minute)
	after := app.Group.MemoryCurrent()
	if after >= before {
		t.Fatalf("baseline controller saved nothing: %d -> %d", before, after)
	}
	// The equilibrium promotion rate must sit near the target, not far
	// above it (the control law backs off above target).
	if rate := c.targets[0].rate; rate > 120 {
		t.Fatalf("promotion rate %v runaway vs target 20", rate)
	}
}

// The first window starts at the controller's first tick: swap-ins the
// container took before then do not count toward the promotion rate.
func TestFirstWindowExcludesEarlierSwapIns(t *testing.T) {
	mgr, g := newEnv()
	anon := mgr.NewPages(g.MM(), mm.Anon, 2000, 2)
	for _, p := range anon {
		mgr.Touch(0, p)
	}
	mgr.ProactiveReclaim(vclock.Time(vclock.Second), g.MM(), 500*pageSize)
	swappedBack := 0
	for _, p := range anon {
		if mgr.State(p) == mm.Offloaded && swappedBack < 120 {
			mgr.Touch(vclock.Time(2*vclock.Second), p)
			swappedBack++
		}
	}
	if g.MM().Stat().SwapIns == 0 {
		t.Fatal("setup swapped nothing in")
	}
	c := New(DefaultConfig(10))
	c.AddTarget(g)
	c.Tick(vclock.Time(3 * vclock.Second))
	before := g.MemoryCurrent()
	c.Tick(vclock.Time(9 * vclock.Second))
	if rate := c.targets[0].rate; rate != 0 {
		t.Fatalf("first window's promotion rate = %v, want 0", rate)
	}
	if g.MemoryCurrent() >= before {
		t.Fatal("held off on swap-ins from before the first tick")
	}
}
