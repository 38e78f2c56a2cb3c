package mm

import (
	"testing"

	"tmo/internal/backend"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

func newSSDSwapWithDev(seed uint64, wbDepth int) (*backend.TierChain, *backend.SSDDevice) {
	spec, _ := backend.DeviceByModel("C")
	dev := backend.NewSSDDevice(spec, seed)
	return ssdChain(dev, testSwapBytes, wbDepth), dev
}

// newReadaheadManager builds a manager with a full-cluster readahead depth
// over the given swap backend.
func newReadaheadManager(swap *backend.TierChain) *Manager {
	return NewManager(Config{
		CapacityBytes: 1024 * pageSize,
		Swap:          swap,
		FS:            newTestFS(88),
		Policy:        PolicyTMO,
		SwapReadahead: swapClusterSize - 1,
	})
}

// offloadClusters swaps out n consecutive anon pages and returns them in
// offload order. Consecutive swap-outs share clusters, so every
// swapClusterSize-aligned run is one cluster.
func offloadClusters(t *testing.T, m *Manager, g *Group, n int) []PageID {
	t.Helper()
	pages := m.NewPages(g, Anon, 2*n, 1)
	touchAll(m, 0, pages)
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, int64(n)*pageSize)
	var offloaded []PageID
	for _, p := range pages {
		if m.State(p) == Offloaded {
			offloaded = append(offloaded, p)
		}
	}
	if len(offloaded) != n {
		t.Fatalf("offloaded %d pages, want %d", len(offloaded), n)
	}
	return offloaded
}

// TestReadaheadChargesOneDeviceOp is the regression test for the readahead
// accounting bug: readahead loads used to discard their Swap.Load latency
// while still charging the device's read-IOPS meter per page — inflating
// the queue factor every subsequent demand fault paid, for IO the sim never
// waited on. Post-fix the whole cluster is one batched submission: one op
// on the meter, latency paid by the faulting task.
func TestReadaheadChargesOneDeviceOp(t *testing.T) {
	sw, dev := newSSDSwapWithDev(41, 0)
	m := newReadaheadManager(sw)
	g := m.NewGroup("app", nil)
	offloaded := offloadClusters(t, m, g, 4*swapClusterSize)

	base := dev.Reads()
	// Fault the head of each cluster inside one meter window (1s).
	now := vclock.Time(2 * vclock.Second)
	for i := 0; i < 4; i++ {
		res := m.Touch(now, offloaded[i*swapClusterSize])
		if !res.SwapIn || !res.IOStall {
			t.Fatalf("cluster fault %d = %+v", i, res)
		}
		if res.Latency <= 0 {
			t.Fatalf("cluster fault %d paid no latency; readahead IO must not be free", i)
		}
		now = now.Add(200 * vclock.Millisecond)
	}
	if got := dev.Reads() - base; got != 4*swapClusterSize {
		t.Fatalf("device read %d pages, want %d", got, 4*swapClusterSize)
	}
	// 4 batched submissions in a ~1s window: the IOPS meter must see ~4
	// ops, not 32. Pre-fix it saw one op per page.
	if rate := dev.ReadRate(now); rate > 8 {
		t.Fatalf("read meter rate %.1f ops/s after 4 clustered faults; batch must charge one op", rate)
	}
	if m.ReadaheadIn() != 4*(swapClusterSize-1) {
		t.Fatalf("readahead brought %d pages", m.ReadaheadIn())
	}
}

// TestReadaheadLatencyScalesWithClusterBytes: an 8-page clustered fault
// must cost more than a single-page fault on an identical device — the
// transfer term sees all the bytes the batch moves.
func TestReadaheadLatencyScalesWithClusterBytes(t *testing.T) {
	swBatch, _ := newSSDSwapWithDev(43, 0)
	mBatch := newReadaheadManager(swBatch)
	gB := mBatch.NewGroup("app", nil)
	offB := offloadClusters(t, mBatch, gB, swapClusterSize)

	swSolo, _ := newSSDSwapWithDev(43, 0)
	mSolo := newTestManager(1024, swSolo, PolicyTMO) // readahead disabled
	gS := mSolo.NewGroup("app", nil)
	offS := offloadClusters(t, mSolo, gS, swapClusterSize)

	now := vclock.Time(2 * vclock.Second)
	batched := mBatch.Touch(now, offB[0])
	solo := mSolo.Touch(now, offS[0])
	if batched.Latency <= solo.Latency {
		t.Fatalf("8-page cluster fault (%v) not costlier than 1-page fault (%v) on twin devices",
			batched.Latency, solo.Latency)
	}
}

// TestCoalescedFaultPaysRemainder: a touch on a readahead page whose batch
// IO is still in flight is a coalesced fault — it waits out the remainder
// of the inflight submission, not a fresh device round trip.
func TestCoalescedFaultPaysRemainder(t *testing.T) {
	sw, _ := newSSDSwapWithDev(47, 0)
	m := newReadaheadManager(sw)
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg)
	g := m.NewGroup("app", nil)
	offloaded := offloadClusters(t, m, g, swapClusterSize)

	now := vclock.Time(2 * vclock.Second)
	demand := m.Touch(now, offloaded[0])
	if !demand.SwapIn || demand.Coalesced {
		t.Fatalf("demand fault = %+v", demand)
	}

	// Halfway through the batch's flight time, a sibling task touches a
	// neighbour that is resident-in-name but whose IO hasn't landed.
	mid := now.Add(demand.Latency / 2)
	co := m.Touch(mid, offloaded[1])
	if !co.Fault || !co.SwapIn || !co.Coalesced {
		t.Fatalf("in-flight neighbour touch = %+v, want coalesced fault", co)
	}
	if !co.MemStall || !co.IOStall {
		t.Fatalf("coalesced SSD fault must stall on mem+io: %+v", co)
	}
	if co.Latency <= 0 || co.Latency >= demand.Latency {
		t.Fatalf("coalesced fault paid %v; must be a strict remainder of the %v batch", co.Latency, demand.Latency)
	}
	if got, _ := reg.Snapshot().Get("mm.fault_coalesced"); got.Value != 1 {
		t.Fatalf("mm.fault_coalesced = %v", got.Value)
	}
	// Coalesced faults are not swap-ins: the page was already loaded by
	// the cluster submission.
	if got := g.Stat().SwapIns; got != 1 {
		t.Fatalf("swap-ins = %d, want only the demand fault", got)
	}

	// Second touch of the same page: the IO has landed (pending state was
	// cleared), so it is an ordinary resident hit.
	again := m.Touch(mid.Add(vclock.Microsecond), offloaded[1])
	if again.Fault || again.Latency != 0 {
		t.Fatalf("post-coalesce touch = %+v, want free resident hit", again)
	}

	// A different neighbour touched after arrival never faults at all.
	late := m.Touch(now.Add(demand.Latency).Add(vclock.Microsecond), offloaded[2])
	if late.Fault || late.Latency != 0 {
		t.Fatalf("post-arrival neighbour touch = %+v, want free resident hit", late)
	}
}

// TestCoalescedWindowClosesOnReclaim: if a readahead page is reclaimed
// before its batch lands, the pending stamp must not leak into the page's
// next life.
func TestCoalescedWindowClosesOnReclaim(t *testing.T) {
	sw, _ := newSSDSwapWithDev(53, 0)
	m := newReadaheadManager(sw)
	g := m.NewGroup("app", nil)
	offloaded := offloadClusters(t, m, g, swapClusterSize)

	now := vclock.Time(2 * vclock.Second)
	demand := m.Touch(now, offloaded[0])
	// Free the in-flight neighbours mid-flight, then fault one back from
	// scratch: it must be a zero-fill (freed anon), not a coalesced wait.
	m.FreePages(offloaded[1:])
	res := m.Touch(now.Add(demand.Latency/4), offloaded[1])
	if res.Coalesced {
		t.Fatalf("freed page kept its pending stamp: %+v", res)
	}
}

// TestBatchedSwapInAllocBound pins the clustered fault path's allocation
// behaviour: gather, batch submission, and pending stamping reuse manager
// scratch, so the full readahead cycle stays below one allocation per
// round (the fractional tail is zswap pool bookkeeping).
func TestBatchedSwapInAllocBound(t *testing.T) {
	m := newReadaheadManager(newZswap())
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 64, 2)
	touchAll(m, 0, pages)
	now := vclock.Time(vclock.Second)
	i := 0
	avg := testing.AllocsPerRun(200, func() {
		now = now.Add(vclock.Millisecond)
		// Offload a full cluster, then fault its head back: one batched
		// store flush plus one batched load+readahead per round.
		m.SetLimit(now, g, g.HierResidentBytes()-swapClusterSize*pageSize)
		m.SetLimit(now, g, 0)
		for _, p := range pages {
			if m.State(p) == Offloaded {
				m.Touch(now, p)
				break
			}
		}
		i++
	})
	if avg >= 1 {
		t.Fatalf("clustered swap-in cycle allocates %.2f times per round, want < 1", avg)
	}
}

// TestReclaimStoreBatchAllocFree pins the batched swap-out path: victim
// gathering and StoreBatch submission use fixed-size manager scratch.
func TestReclaimStoreBatchAllocFree(t *testing.T) {
	m := newTestManager(1024, newZswap(), PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 64, 2)
	touchAll(m, 0, pages)
	now := vclock.Time(vclock.Second)
	avg := testing.AllocsPerRun(200, func() {
		now = now.Add(vclock.Millisecond)
		m.ProactiveReclaim(now, g, swapClusterSize*pageSize)
		for _, p := range pages {
			if m.State(p) == Offloaded {
				m.Touch(now, p)
			}
		}
	})
	if avg >= 1 {
		t.Fatalf("batched reclaim cycle allocates %.2f times per round, want < 1", avg)
	}
}

// TestReclaimBatchesStoresThroughWritebackQueue: an SSD-backed reclaim pass
// lands its stores in the async queue, not on the device inline; reclaim
// cost is the queue's backpressure, and the writes surface on the device
// only as the queue drains.
func TestReclaimBatchesStoresThroughWritebackQueue(t *testing.T) {
	sw, dev := newSSDSwapWithDev(59, 0)
	m := newTestManager(1024, sw, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 32, 1)
	touchAll(m, 0, pages)
	res := m.ProactiveReclaim(vclock.Time(vclock.Second), g, 16*pageSize)
	if res.ReclaimedAnon != 16 {
		t.Fatalf("reclaimed %d anon pages", res.ReclaimedAnon)
	}
	if sw.Stats().StoredPages != 16 {
		t.Fatalf("backend holds %d pages", sw.Stats().StoredPages)
	}
	if dev.WrittenBytes() >= 16*pageSize {
		t.Fatalf("all %d bytes hit the device at store time; writeback is not async", dev.WrittenBytes())
	}
	sw.DrainWriteback(vclock.Time(10 * vclock.Second))
	if dev.WrittenBytes() != 16*pageSize {
		t.Fatalf("after drain device saw %d bytes, want %d", dev.WrittenBytes(), 16*pageSize)
	}
}

// TestReclaimSurvivesPartialStoreBatch: when the backend fills mid-batch,
// the stored prefix is offloaded, the rest return to the LRU, and the
// swap-exhausted latch trips — mirroring the per-page ErrFull contract.
func TestReclaimSurvivesPartialStoreBatch(t *testing.T) {
	spec, _ := backend.DeviceByModel("C")
	sw := ssdChain(backend.NewSSDDevice(spec, 61), 5*pageSize, 0)
	m := newTestManager(1024, sw, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 16, 1)
	touchAll(m, 0, pages)
	res := m.ProactiveReclaim(vclock.Time(vclock.Second), g, 16*pageSize)
	if res.ReclaimedAnon != 5 {
		t.Fatalf("reclaimed %d anon pages past a 5-page backend", res.ReclaimedAnon)
	}
	if !res.SwapFull {
		t.Fatalf("partial batch must report swap exhaustion")
	}
	if sw.Stats().StoredPages != 5 {
		t.Fatalf("backend holds %d pages", sw.Stats().StoredPages)
	}
	offloaded, resident := 0, 0
	for _, p := range pages {
		switch m.State(p) {
		case Offloaded:
			offloaded++
		case Resident:
			resident++
		}
	}
	if offloaded != 5 || resident != 11 {
		t.Fatalf("states after partial batch: %d offloaded, %d resident", offloaded, resident)
	}
}
