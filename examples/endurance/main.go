// Endurance: SSD write regulation (§4.5, Fig. 14).
//
// Offloading to SSD consumes the device's limited write endurance. Senpai
// monitors the device write rate and modulates reclaim to keep it under a
// fleet-safe budget. The example runs an Ads-style workload whose working
// set drifts (sustaining swap-out traffic), first without regulation, then
// enables the budget mid-run.
//
//	go run ./examples/endurance
package main

import (
	"fmt"

	"tmo/internal/cgroup"
	"tmo/internal/core"
	"tmo/internal/senpai"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

func main() {
	prof := workload.MustCatalog("ads-b")
	cfg := senpai.ConfigA()
	cfg.ReclaimRatio *= 10
	sys := core.New(core.Options{
		Mode:          core.ModeSSDSwap,
		CapacityBytes: 2 * prof.FootprintBytes,
		DeviceModel:   "C",
		Senpai:        &cfg,
		Seed:          11,
	})
	sys.AddProfile(prof, cgroup.Workload)

	fmt.Println("phase          time     swap-out rate    endurance used")
	var lastWritten int64
	var unregulated float64
	step := 2 * vclock.Minute
	for i := 0; i < 12; i++ {
		if i == 6 {
			// Fleet analysis done: cap writes at a quarter of the
			// observed unregulated rate.
			budget := unregulated / 6 / 4
			sys.Senpai.SetWriteBudget(budget)
			fmt.Printf("-- write regulation enabled at %.0f B/s --\n", budget)
		}
		sys.Run(step)
		written := sys.Chain.Stats().WrittenBytes
		rate := float64(written-lastWritten) / step.Seconds()
		lastWritten = written
		phase := "unregulated"
		if i >= 6 {
			phase = "regulated"
		} else {
			unregulated += rate
		}
		fmt.Printf("%-12s %8s %10.0f B/s %15.9f%%\n",
			phase, sys.Server.Now(), rate, 100*sys.Device.EnduranceUsed())
	}

	fmt.Println("\nthe write rate collapses to the budget while offloading continues —")
	fmt.Println("the modulation that made fleet-wide SSD offloading safe to deploy (Fig. 14).")
}
