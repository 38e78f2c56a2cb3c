package experiments

import "testing"

func TestAblationReclaimPolicyShape(t *testing.T) {
	r := AblationReclaimPolicy(cfg)
	// §3.4: the historical skew reclaims file exclusively and thrashes it;
	// the balanced algorithm spreads reclaim and pays less total paging.
	if r.Legacy.FileShare < 0.95 {
		t.Errorf("legacy file share = %v, want ~1.0", r.Legacy.FileShare)
	}
	if r.TMO.FileShare > 0.8 || r.TMO.FileShare < 0.2 {
		t.Errorf("tmo file share = %v, want balanced", r.TMO.FileShare)
	}
	if r.TMO.SwapInsPerSec == 0 {
		t.Errorf("tmo policy never swapped")
	}
	if r.Legacy.SwapInsPerSec != 0 {
		t.Errorf("legacy policy swapped %v/s on a non-exhausted file cache", r.Legacy.SwapInsPerSec)
	}
	if r.TMO.TotalPagingPerSec >= r.Legacy.TotalPagingPerSec {
		t.Errorf("balanced reclaim did not reduce aggregate paging: tmo=%v legacy=%v",
			r.TMO.TotalPagingPerSec, r.Legacy.TotalPagingPerSec)
	}
}

func TestAblationLimitModeShape(t *testing.T) {
	r := AblationLimitMode(cfg)
	// §3.3: the stateful limit blocks an expanding workload — every growth
	// step charges against the pinned memory.max and direct-reclaims; the
	// stateless knob never does.
	if r.ReclaimMode.DirectReclaims != 0 {
		t.Errorf("memory.reclaim mode caused %d direct reclaims", r.ReclaimMode.DirectReclaims)
	}
	if r.LimitMode.DirectReclaims < 100 {
		t.Errorf("memory.max mode caused only %d direct reclaims", r.LimitMode.DirectReclaims)
	}
	if r.LimitMode.RPS >= r.ReclaimMode.RPS {
		t.Errorf("limit mode did not cost throughput: %v vs %v", r.LimitMode.RPS, r.ReclaimMode.RPS)
	}
}

func TestAblationControllerShape(t *testing.T) {
	r := AblationController(cfg)
	if len(r.Cells) != 4 {
		t.Fatalf("cells = %d", len(r.Cells))
	}
	// The static target's RPS cost lands on the slow device.
	if r.Cell("gswap", "B").RPS >= r.Cell("gswap", "C").RPS {
		t.Errorf("gswap slow-device RPS %v not below fast-device %v",
			r.Cell("gswap", "B").RPS, r.Cell("gswap", "C").RPS)
	}
	// Senpai holds throughput on both devices.
	for _, dev := range []string{"C", "B"} {
		if got := r.Cell("senpai", dev).RPS; got < 0.97*r.Cell("senpai", "C").RPS {
			t.Errorf("senpai RPS on %s = %v sagged", dev, got)
		}
	}
}

func TestAblationTieredShape(t *testing.T) {
	r := AblationTiered(cfg)
	// Both tiered mechanisms must engage: incompressible data routed
	// straight to SSD, pool overflow written back in LRU order.
	if r.Tiered.DirectSSD == 0 {
		t.Errorf("no pages routed directly to SSD")
	}
	if r.Tiered.Writebacks == 0 {
		t.Errorf("no pool writebacks despite the tight pool")
	}
	// The hierarchy matches zswap-class savings with a pool two orders of
	// magnitude smaller, and does no worse than SSD-only.
	if r.Tiered.NetSavedMiB < r.SSD.NetSavedMiB {
		t.Errorf("tiered saved %v MiB < ssd-only %v MiB", r.Tiered.NetSavedMiB, r.SSD.NetSavedMiB)
	}
	if r.Tiered.NetSavedMiB < 0.85*r.Zswap.NetSavedMiB {
		t.Errorf("tiered saved %v MiB far below zswap-only %v MiB", r.Tiered.NetSavedMiB, r.Zswap.NetSavedMiB)
	}
	// Nothing collapses throughput.
	for _, o := range []TierOutcome{r.Zswap, r.SSD, r.Tiered} {
		if o.RPS < 0.9*r.Zswap.RPS {
			t.Errorf("%s RPS %v collapsed", o.Backend, o.RPS)
		}
	}
}
