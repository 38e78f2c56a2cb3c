package sim

import (
	"testing"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

const MiB = workload.MiB

func newServer(capacityMiB int64, swapModel string) *Server {
	spec, _ := backend.DeviceByModel("C")
	dev := backend.NewSSDDevice(spec, 21)
	var swap *backend.TierChain
	if swapModel == "zswap" {
		swap = backend.NewTierChain([]backend.TierSpec{{Kind: backend.TierZswap, Codec: backend.CodecZstd,
			CapacityBytes: 1 << 30}}, nil, 0, 22)
	} else if swapModel == "ssd" {
		swap = backend.NewTierChain([]backend.TierSpec{{Kind: backend.TierSSD, CapacityBytes: 1 << 30}}, dev, 0, 0)
	}
	return NewServer(Config{
		CapacityBytes: capacityMiB * MiB,
		Device:        dev,
		Swap:          swap,
		Policy:        mm.PolicyTMO,
	})
}

func TestServerDefaults(t *testing.T) {
	s := newServer(256, "")
	if s.cfg.TickLen != 100*vclock.Millisecond {
		t.Fatalf("default tick = %v", s.cfg.TickLen)
	}
	if s.Now() != 0 || s.ticks != 0 {
		t.Fatalf("fresh server not at time zero")
	}
	if s.Swap() != nil {
		t.Fatalf("swap configured unexpectedly")
	}
}

func TestRunAdvancesClockInTicks(t *testing.T) {
	s := newServer(256, "")
	s.Run(1 * vclock.Second)
	if s.Now() != vclock.Time(vclock.Second) {
		t.Fatalf("Now = %v, want 1s", s.Now())
	}
	if s.ticks != 10 {
		t.Fatalf("ticks = %d, want 10", s.ticks)
	}
	// Partial tick rounds up.
	s.Run(150 * vclock.Millisecond)
	if s.Now() != vclock.Time(1200*vclock.Millisecond) {
		t.Fatalf("Now = %v, want 1.2s", s.Now())
	}
}

func TestAddAppPopulatesAndServes(t *testing.T) {
	s := newServer(512, "")
	app := s.AddApp(workload.MustCatalog("feed"), cgroup.Workload, nil, 1)
	if app.Group.MemoryCurrent() == 0 {
		t.Fatalf("app not populated at add time")
	}
	s.Run(1 * vclock.Second)
	if app.Completed() == 0 {
		t.Fatalf("no requests served")
	}
	if s.LastResult(app).Completed == 0 {
		t.Fatalf("last tick result empty")
	}
}

func TestAddAppValidates(t *testing.T) {
	s := newServer(256, "")
	defer func() {
		if recover() == nil {
			t.Fatalf("invalid profile accepted")
		}
	}()
	s.AddApp(workload.Profile{Name: "bad"}, cgroup.Workload, nil, 1)
}

func TestPSIAccumulatesUnderMemoryPressure(t *testing.T) {
	// A server whose DRAM cannot hold the app's working set must show
	// memory pressure once the kernel starts reclaiming and refaulting.
	s := newServer(96, "") // feed wants ~192MiB
	app := s.AddApp(workload.MustCatalog("feed"), cgroup.Workload, nil, 2)
	s.Run(30 * vclock.Second)
	tr := app.Group.PSI()
	tr.Sync(s.Now())
	if tr.Total(psi.Memory, psi.Some) == 0 {
		t.Fatalf("no memory pressure under 2x overcommit")
	}
	root := s.Hierarchy().Root().PSI()
	root.Sync(s.Now())
	if root.Total(psi.Memory, psi.Some) == 0 {
		t.Fatalf("pressure did not propagate to root")
	}
}

func TestNoPressureWhenMemoryAmple(t *testing.T) {
	s := newServer(1024, "")
	app := s.AddApp(workload.MustCatalog("cache-b"), cgroup.Workload, nil, 3)
	s.Run(10 * vclock.Second)
	tr := app.Group.PSI()
	tr.Sync(s.Now())
	if got := tr.Total(psi.Memory, psi.Some); got != 0 {
		t.Fatalf("memory pressure %v with ample DRAM", got)
	}
}

func TestSelfThrottleEngagesWhenMemoryTight(t *testing.T) {
	s := newServer(192, "") // web wants 256MiB and grows
	app := s.AddApp(workload.MustCatalog("web"), cgroup.Workload, nil, 4)
	s.Run(4 * vclock.Minute)
	if app.Admitted() >= 1 {
		t.Fatalf("web did not throttle at admitted=%v free=%d", app.Admitted(), s.Manager().HostStat().FreeBytes)
	}
}

func TestNoThrottleWithAmpleMemory(t *testing.T) {
	s := newServer(1024, "")
	app := s.AddApp(workload.MustCatalog("web"), cgroup.Workload, nil, 5)
	s.Run(30 * vclock.Second)
	if app.Admitted() != 1 {
		t.Fatalf("web throttled with ample memory: %v", app.Admitted())
	}
}

func TestThrottleFactorShape(t *testing.T) {
	p := workload.MustCatalog("web")
	if f := throttleFactor(p, 0.5); f != 1 {
		t.Fatalf("ample headroom factor = %v", f)
	}
	if f := throttleFactor(p, 0.0); f != p.ThrottleFloor {
		t.Fatalf("exhausted factor = %v, want floor %v", f, p.ThrottleFloor)
	}
	mid := (p.ThrottleHighFrac + p.ThrottleLowFrac) / 2
	f := throttleFactor(p, mid)
	if f <= p.ThrottleFloor || f >= 1 {
		t.Fatalf("midpoint factor = %v not interpolated", f)
	}
}

// An agent's Tick and an observer are both tick hooks: each runs once per
// tick, in registration order.
func TestObserversAndControllers(t *testing.T) {
	s := newServer(256, "")
	var calls []string
	s.OnTick(func(now vclock.Time) { calls = append(calls, "agent") })
	s.OnTick(func(now vclock.Time) { calls = append(calls, "observer") })
	s.Run(1 * vclock.Second)
	if len(calls) != 20 {
		t.Fatalf("%d hook calls over 10 ticks, want 20", len(calls))
	}
	for i, c := range calls {
		if want := []string{"agent", "observer"}[i%2]; c != want {
			t.Fatalf("call %d ran %s, want %s: %v", i, c, want, calls)
		}
	}
}

func TestPSIAveragesUpdatedPeriodically(t *testing.T) {
	s := newServer(96, "")
	app := s.AddApp(workload.MustCatalog("feed"), cgroup.Workload, nil, 6)
	s.Run(30 * vclock.Second)
	if app.Group.PSI().Avg(psi.Memory, psi.Some, psi.Avg10) == 0 {
		t.Fatalf("avg10 never updated despite pressure")
	}
}

// TestDeterminism: two identically-seeded servers produce identical
// trajectories.
func TestDeterminism(t *testing.T) {
	run := func() (int64, int64, vclock.Duration) {
		s := newServer(128, "zswap")
		app := s.AddApp(workload.MustCatalog("feed"), cgroup.Workload, nil, 7)
		s.Run(20 * vclock.Second)
		tr := app.Group.PSI()
		tr.Sync(s.Now())
		return app.Completed(), app.Group.MemoryCurrent(), tr.Total(psi.Memory, psi.Some)
	}
	c1, m1, p1 := run()
	c2, m2, p2 := run()
	if c1 != c2 || m1 != m2 || p1 != p2 {
		t.Fatalf("nondeterministic run: (%d,%d,%v) vs (%d,%d,%v)", c1, m1, p1, c2, m2, p2)
	}
}

// TestNoCPUContentionWhenProvisioned: the simulator gives every worker a
// full CPU, so CPU pressure, which the cgroup's cpu.pressure file and the
// psi.cpu series still export, stays zero.
func TestNoCPUContentionWhenProvisioned(t *testing.T) {
	spec, _ := backend.DeviceByModel("C")
	s := NewServer(Config{
		CapacityBytes: 1024 * MiB,
		Device:        backend.NewSSDDevice(spec, 32),
		Policy:        mm.PolicyTMO,
	})
	s.AddApp(workload.MustCatalog("cache-a"), cgroup.Workload, nil, 3)
	s.Run(5 * vclock.Second)
	root := s.Hierarchy().Root().PSI()
	root.Sync(s.Now())
	if root.Total(psi.CPU, psi.Some) != 0 {
		t.Fatalf("cpu pressure with ample CPUs")
	}
}

// TestMultiAppCoexistence: several apps plus tax sidecars share one host
// without accounting anomalies.
func TestMultiAppCoexistence(t *testing.T) {
	s := newServer(768, "zswap")
	apps := []*workload.App{
		s.AddApp(workload.MustCatalog("feed"), cgroup.Workload, nil, 8),
		s.AddApp(workload.MustCatalog("cache-a"), cgroup.Workload, nil, 9),
		s.AddApp(workload.MustCatalog("datacenter-tax"), cgroup.DatacenterTax, nil, 10),
	}
	s.Run(30 * vclock.Second)
	var sum int64
	for _, a := range apps {
		if a.Completed() == 0 {
			t.Fatalf("app %s served nothing", a.Profile.Name)
		}
		sum += a.Group.MemoryCurrent()
	}
	if got := s.Hierarchy().Root().MemoryCurrent(); got != sum {
		t.Fatalf("root usage %d != sum of apps %d", got, sum)
	}
	host := s.Manager().HostStat()
	if host.ResidentBytes != sum {
		t.Fatalf("host resident %d != sum %d", host.ResidentBytes, sum)
	}
}
