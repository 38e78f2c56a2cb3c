package core

import (
	"testing"

	"tmo/internal/cgroup"
	"tmo/internal/oomd"
	"tmo/internal/psi"
	"tmo/internal/senpai"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// TestSoakLongRun is the stability soak: a crowded host runs for hours of
// virtual time through every disruptive event the system supports —
// restarts, working-set drift, device degradation and recovery, an OOM
// kill and revival, a write-budget change — and the structural invariants
// must hold at every checkpoint.
//
// Skipped under -short.
func TestSoakLongRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}

	sc := senpai.ConfigA()
	sc.ReclaimRatio *= 8
	sc.WriteBudgetBytesPerSec = 64 << 10
	sys := New(Options{
		Mode:          ModeSSDSwap,
		CapacityBytes: 640 * MiB,
		DeviceModel:   "C",
		Senpai:        &sc,
		SwapReadahead: 4,
		Seed:          99,
	})
	sys.Senpai.EnableAutoTune()

	web := sys.AddProfile(workload.MustCatalog("web").Scale(0.5), cgroup.Workload)
	feed := sys.AddProfile(workload.MustCatalog("feed").Scale(0.5), cgroup.Workload)
	adsb := sys.AddProfile(workload.MustCatalog("ads-b").Scale(0.5), cgroup.Workload)
	dc, micro := sys.AddTax()

	killer := oomd.New(oomd.DefaultConfig(), sys.Server.Hierarchy().Root())
	killer.AddCandidate(oomd.Candidate{Group: web.Group, Priority: 10, Kill: web.Kill})
	killer.AddCandidate(oomd.Candidate{Group: adsb.Group, Priority: 0, Kill: adsb.Kill})
	sys.Server.OnTick(killer.Tick)

	apps := []*workload.App{web, feed, adsb, dc, micro}
	checkpoint := func(stage string) {
		t.Helper()
		host := sys.Server.Manager().HostStat()
		var sum int64
		for _, a := range apps {
			sum += a.Group.MemoryCurrent()
		}
		if host.ResidentBytes != sum {
			t.Fatalf("%s: host resident %d != sum of groups %d", stage, host.ResidentBytes, sum)
		}
		if host.ResidentBytes < 0 || host.PoolBytes < 0 {
			t.Fatalf("%s: negative occupancy %+v", stage, host)
		}
		root := sys.Server.Hierarchy().Root().PSI()
		root.Sync(sys.Server.Now())
		for r := psi.Resource(0); r < psi.NumResources; r++ {
			if root.Total(r, psi.Full) > root.Total(r, psi.Some) {
				t.Fatalf("%s: %v full > some", stage, r)
			}
		}
	}

	sys.Run(30 * vclock.Minute)
	checkpoint("steady state")

	// A code push restarts the web tier.
	web.Restart(sys.Server.Now())
	sys.Run(15 * vclock.Minute)
	checkpoint("after restart")

	// The SSD degrades 10x for a while, then recovers.
	sys.Device.SetDegradation(10)
	sys.Run(15 * vclock.Minute)
	checkpoint("degraded device")
	sys.Device.SetDegradation(1)
	sys.Run(15 * vclock.Minute)
	checkpoint("device recovered")

	// Manually kill and revive the batch tier (exercising the same paths
	// oomd would use under pressure).
	adsb.Kill(sys.Server.Now())
	sys.Run(10 * vclock.Minute)
	checkpoint("after kill")
	if adsb.Group.MemoryCurrent() != 0 {
		t.Fatalf("killed app retains memory")
	}
	adsb.Revive(sys.Server.Now())
	sys.Run(15 * vclock.Minute)
	checkpoint("after revive")
	if sys.Server.LastResult(adsb).Completed == 0 {
		t.Fatalf("revived app not serving")
	}

	// Everything still functions: every app serves, savings exist, the
	// swap state round-trips.
	for _, a := range apps {
		if a.Killed() {
			t.Fatalf("%s ended the soak dead", a.Profile.Name)
		}
		if sys.Server.LastResult(a).Completed == 0 && a.Profile.Workers > 0 {
			t.Fatalf("%s not serving at end", a.Profile.Name)
		}
	}
	if sys.Metrics().SwappedPages == 0 {
		t.Fatalf("no offloading at end of soak")
	}
	// The accounting invariant the whole repo rests on, one more time via
	// the mm-level stats.
	if got := sys.Server.Manager().HostStat().FreeBytes; got < -int64(MiB) {
		t.Fatalf("host free bytes deeply negative at end: %d", got)
	}
}
