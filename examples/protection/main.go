// Protection: PSI-driven OOM defense and cgroup memory protection working
// together (§3.2.4).
//
// A host is deliberately overcommitted: a latency-critical frontend shares
// it with an oversized batch job and no swap is configured. Two mechanisms
// shield the frontend:
//
//   - memory.low marks its working set as protected, so kernel reclaim
//     squeezes the batch job first;
//   - an oomd policy watches machine memory pressure and kills the batch
//     container — not the frontend — when stalls persist.
//
// Run it with:
//
//	go run ./examples/protection
package main

import (
	"fmt"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/mm"
	"tmo/internal/oomd"
	"tmo/internal/psi"
	"tmo/internal/sim"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

func main() {
	spec, _ := backend.DeviceByModel("C")
	server := sim.NewServer(sim.Config{
		CapacityBytes: 192 * workload.MiB, // cache-b + analytics want ~300 MiB
		Device:        backend.NewSSDDevice(spec, 1),
		Policy:        mm.PolicyTMO,
	})
	frontend := server.AddApp(workload.MustCatalog("cache-b").Scale(0.5), cgroup.Workload, nil, 1)
	batch := server.AddApp(workload.MustCatalog("analytics"), cgroup.Workload, nil, 2)

	// Protect the frontend's working set from ancestor reclaim.
	frontend.Group.MM().SetLow(frontend.Group.MemoryCurrent())

	// Arm the userspace OOM killer: batch is expendable, frontend is not.
	cfg := oomd.DefaultConfig()
	cfg.Kind = psi.Some
	cfg.Threshold = 0.02
	killer := oomd.New(cfg, server.Hierarchy().Root())
	killer.AddCandidate(oomd.Candidate{Group: frontend.Group, Priority: 10, Kill: frontend.Kill})
	killer.AddCandidate(oomd.Candidate{Group: batch.Group, Priority: 0, Kill: batch.Kill})
	server.OnTick(killer.Tick)

	fmt.Println("time     frontend-res  batch-res   mem-psi   frontend-rps")
	var lastCompleted int64
	var memPSI psi.Baseline
	for i := 0; i < 8; i++ {
		server.Run(30 * vclock.Second)
		tr := server.Hierarchy().Root().PSI()
		tr.Sync(server.Now())
		completed := frontend.Completed()
		fmt.Printf("%-8s %9.1fMiB %9.1fMiB %8.3f%% %10.0f\n",
			server.Now(),
			float64(frontend.Group.MemoryCurrent())/workload.MiB,
			float64(batch.Group.MemoryCurrent())/workload.MiB,
			100*memPSI.Read(tr.Total(psi.Memory, psi.Some), 30*vclock.Second),
			float64(completed-lastCompleted)/30)
		lastCompleted = completed
		for _, k := range killer.Kills() {
			if k.Time > server.Now().Add(-30*vclock.Second) {
				fmt.Printf("  !! oomd killed %q at %.1f%% pressure\n", k.Group.Name(), 100*k.Pressure)
			}
		}
	}

	if batch.Killed() && !frontend.Killed() {
		fmt.Println("\nthe batch job was sacrificed; the protected frontend never lost memory or requests —")
		fmt.Println("PSI turned 'functionally out of memory' (§3.2.4) into a precise, early, targeted action.")
	}
}
