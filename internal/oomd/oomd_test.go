package oomd

import (
	"testing"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/sim"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

const MiB = workload.MiB

func newDomain() (*cgroup.Hierarchy, *cgroup.Group) {
	spec, _ := backend.DeviceByModel("C")
	mgr := mm.NewManager(mm.Config{
		CapacityBytes: 256 * MiB,
		FS:            backend.NewFilesystem(backend.NewSSDDevice(spec, 61)),
	})
	h := cgroup.NewHierarchy(mgr, 0)
	return h, h.Root()
}

func TestBadConfigPanics(t *testing.T) {
	_, root := newDomain()
	defer func() {
		if recover() == nil {
			t.Fatalf("zero interval accepted")
		}
	}()
	New(Config{}, root)
}

func TestBadCandidatePanics(t *testing.T) {
	_, root := newDomain()
	c := New(DefaultConfig(), root)
	defer func() {
		if recover() == nil {
			t.Fatalf("nil kill accepted")
		}
	}()
	c.AddCandidate(Candidate{Group: root})
}

// pressureDriver injects synthetic full pressure into a group.
type pressureDriver struct {
	g       *cgroup.Group
	stalled bool
}

func (d *pressureDriver) stallFor(now vclock.Time, frac float64, interval vclock.Duration) vclock.Time {
	d.g.StallStart(now, psi.Memory)
	end := now.Add(vclock.Duration(float64(interval) * frac))
	d.g.StallStop(end, psi.Memory)
	return now.Add(interval)
}

func TestSustainedFullPressureKills(t *testing.T) {
	h, root := newDomain()
	victimG := h.NewGroup(nil, "batch", cgroup.Workload, 0)
	pages := h.Manager().NewPages(victimG.MM(), mm.Anon, 100, 1)
	for _, p := range pages {
		h.Manager().Touch(0, p)
	}
	killed := false
	cfg := DefaultConfig()
	c := New(cfg, root)
	c.AddCandidate(Candidate{
		Group:    victimG,
		Priority: 0,
		Kill:     func(now vclock.Time) { killed = true; h.Manager().FreePages(pages) },
	})

	// One task in the domain, stalled 50% of every second: full pressure
	// 0.5, sustained.
	victimG.TaskStart(0)
	drv := &pressureDriver{g: victimG}
	now := vclock.Time(0)
	c.Tick(now)
	for i := 0; i < 30 && !killed; i++ {
		now = drv.stallFor(now, 0.5, vclock.Second)
		c.Tick(now)
	}
	if !killed {
		t.Fatalf("sustained full pressure did not trigger a kill")
	}
	if len(c.Kills()) != 1 {
		t.Fatalf("kill log = %d entries", len(c.Kills()))
	}
	if c.Kills()[0].Pressure < cfg.Threshold {
		t.Fatalf("recorded pressure %v below threshold", c.Kills()[0].Pressure)
	}
	if victimG.MemoryCurrent() != 0 {
		t.Fatalf("victim memory not freed")
	}
}

func TestTransientSpikeDoesNotKill(t *testing.T) {
	h, root := newDomain()
	g := h.NewGroup(nil, "app", cgroup.Workload, 0)
	pages := h.Manager().NewPages(g.MM(), mm.Anon, 10, 1)
	for _, p := range pages {
		h.Manager().Touch(0, p)
	}
	killed := false
	c := New(DefaultConfig(), root)
	c.AddCandidate(Candidate{Group: g, Priority: 0, Kill: func(vclock.Time) { killed = true }})

	g.TaskStart(0)
	drv := &pressureDriver{g: g}
	now := vclock.Time(0)
	c.Tick(now)
	// 5 seconds of heavy pressure (below the 10s sustain window), then
	// calm.
	for i := 0; i < 5; i++ {
		now = drv.stallFor(now, 0.9, vclock.Second)
		c.Tick(now)
	}
	for i := 0; i < 30; i++ {
		now = now.Add(vclock.Second)
		g.PSI().Sync(now)
		c.Tick(now)
	}
	if killed {
		t.Fatalf("transient spike killed a container")
	}
}

func TestVictimSelectionPriorityThenSize(t *testing.T) {
	h, root := newDomain()
	mk := func(name string, pages int) *cgroup.Group {
		g := h.NewGroup(nil, name, cgroup.Workload, 0)
		pp := h.Manager().NewPages(g.MM(), mm.Anon, pages, 1)
		for _, p := range pp {
			h.Manager().Touch(0, p)
		}
		return g
	}
	important := mk("frontend", 500) // biggest but high priority
	batchBig := mk("batch-big", 200)
	batchSmall := mk("batch-small", 50)

	var killedName string
	c := New(DefaultConfig(), root)
	add := func(g *cgroup.Group, prio int) {
		c.AddCandidate(Candidate{Group: g, Priority: prio, Kill: func(vclock.Time) { killedName = g.Name() }})
	}
	add(important, 10)
	add(batchBig, 0)
	add(batchSmall, 0)

	v, ok := c.pickVictim()
	if !ok {
		t.Fatalf("no victim")
	}
	v.Kill(0)
	// Lowest priority wins; among equals, the bigger one.
	if killedName != "batch-big" {
		t.Fatalf("victim = %q, want batch-big", killedName)
	}
}

func TestCooldownBetweenKills(t *testing.T) {
	h, root := newDomain()
	g1 := h.NewGroup(nil, "a", cgroup.Workload, 0)
	g2 := h.NewGroup(nil, "b", cgroup.Workload, 0)
	for _, g := range []*cgroup.Group{g1, g2} {
		pp := h.Manager().NewPages(g.MM(), mm.Anon, 10, 1)
		for _, p := range pp {
			h.Manager().Touch(0, p)
		}
	}
	kills := 0
	cfg := DefaultConfig()
	cfg.SustainFor = 2 * vclock.Second
	cfg.Cooldown = 20 * vclock.Second
	c := New(cfg, root)
	for _, g := range []*cgroup.Group{g1, g2} {
		g := g
		c.AddCandidate(Candidate{Group: g, Priority: 0, Kill: func(vclock.Time) {
			kills++
			h.Manager().SetLimit(0, g.MM(), 0)
		}})
	}
	root.TaskStart(0)
	drv := &pressureDriver{g: root}
	now := vclock.Time(0)
	c.Tick(now)
	// Pressure stays pegged; only one kill may fire within the cooldown.
	for i := 0; i < 15; i++ {
		now = drv.stallFor(now, 0.9, vclock.Second)
		c.Tick(now)
	}
	if kills != 1 {
		t.Fatalf("%d kills within cooldown, want 1", kills)
	}
}

// TestEndToEndWithSimulator: a host overcommitted 2:1 with no swap thrashes;
// oomd kills the batch container; pressure recovers and the surviving
// workload's throughput rebounds.
func TestEndToEndWithSimulator(t *testing.T) {
	spec, _ := backend.DeviceByModel("C")
	dev := backend.NewSSDDevice(spec, 62)
	s := sim.NewServer(sim.Config{
		CapacityBytes: 128 * MiB, // cache-a alone wants 192 MiB
		Device:        dev,
		Policy:        mm.PolicyTMO,
	})
	main := s.AddApp(workload.MustCatalog("cache-a").Scale(0.5), cgroup.Workload, nil, 1)
	batch := s.AddApp(workload.MustCatalog("analytics").Scale(0.5), cgroup.Workload, nil, 2)

	cfg := DefaultConfig()
	cfg.Threshold = 0.02
	cfg.Kind = psi.Some
	ctl := New(cfg, s.Hierarchy().Root())
	ctl.AddCandidate(Candidate{Group: main.Group, Priority: 10, Kill: main.Kill})
	ctl.AddCandidate(Candidate{Group: batch.Group, Priority: 0, Kill: batch.Kill})
	s.OnTick(ctl.Tick)

	s.Run(3 * vclock.Minute)
	if len(ctl.Kills()) == 0 {
		t.Fatalf("no kill under 1.7x overcommit")
	}
	if !batch.Killed() {
		t.Fatalf("wrong victim: batch alive, main killed=%v", main.Killed())
	}
	if main.Killed() {
		t.Fatalf("high-priority workload was killed")
	}
	// The survivor keeps serving after the kill.
	before := main.Completed()
	s.Run(30 * vclock.Second)
	if main.Completed() == before {
		t.Fatalf("survivor stopped serving")
	}
	// Revive works: the batch container reschedules and serves again.
	batch.Revive(s.Now())
	s.Run(10 * vclock.Second)
	if batch.Completed() == 0 {
		t.Fatalf("revived container did not serve")
	}
}

// The first window starts at the killer's first tick: stall time the domain
// carried before the killer was registered does not arm it.
func TestFirstWindowExcludesEarlierStalls(t *testing.T) {
	h, root := newDomain()
	g := h.NewGroup(nil, "app", cgroup.Workload, 0)
	g.TaskStart(0)
	start := (&pressureDriver{g: g}).stallFor(0, 1, 30*vclock.Second)
	c := New(DefaultConfig(), root)
	c.Tick(start)
	c.Tick(start.Add(vclock.Second))
	if c.armed {
		t.Fatal("stalls before the first tick armed the killer")
	}
}
