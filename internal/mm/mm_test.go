package mm

import (
	"fmt"
	"testing"
	"testing/quick"

	"tmo/internal/backend"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

const pageSize = 4096

func newTestFS(seed uint64) *backend.Filesystem {
	spec, _ := backend.DeviceByModel("C")
	return backend.NewFilesystem(backend.NewSSDDevice(spec, seed))
}

func newTestManager(capacityPages int64, swap *backend.TierChain, policy ReclaimPolicy) *Manager {
	return NewManager(Config{
		CapacityBytes: capacityPages * pageSize,
		Swap:          swap,
		FS:            newTestFS(99),
		Policy:        policy,
	})
}

// testSwapBytes sizes the test backends far beyond anything a test offloads.
const testSwapBytes = 1 << 30

// zswapChain returns a one-tier chain: a zstd pool of capacity bytes.
func zswapChain(capacity int64) *backend.TierChain {
	return backend.NewTierChain([]backend.TierSpec{{Kind: backend.TierZswap, Codec: backend.CodecZstd,
		CapacityBytes: capacity}}, nil, 0, 7)
}

// ssdChain returns a one-tier chain: a swap partition of capacity bytes on
// dev, its writeback queue holding up to wbDepth submissions.
func ssdChain(dev *backend.SSDDevice, capacity int64, wbDepth int) *backend.TierChain {
	return backend.NewTierChain([]backend.TierSpec{{Kind: backend.TierSSD, CapacityBytes: capacity}}, dev, wbDepth, 0)
}

func newZswap() *backend.TierChain { return zswapChain(testSwapBytes) }

func newSSDSwap() *backend.TierChain {
	spec, _ := backend.DeviceByModel("C")
	return ssdChain(backend.NewSSDDevice(spec, 42), testSwapBytes, 0)
}

// touchAll touches every page once at the given time.
func touchAll(m *Manager, now vclock.Time, pages []PageID) {
	for _, p := range pages {
		m.Touch(now, p)
	}
}

// TestTouchHitTakesOnlyPlainHits: touchHit records a local resident hit,
// and declines, untouched, every access that needs Touch's full path — a
// fault, a far access, or a coalesce onto a batch in flight.
func TestTouchHitTakesOnlyPlainHits(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 3, 1)
	if m.touchHit(5, pages[0]) || m.State(pages[0]) != NotPresent {
		t.Fatalf("touchHit took a fault")
	}
	touchAll(m, 0, pages)
	far, pending := pages[1], pages[2]
	m.flags[far] |= flagFar
	m.setPending(pending, 100, false)
	for _, p := range []PageID{far, pending} {
		if m.touchHit(5, p) || m.lastTouch[p] != 0 {
			t.Fatalf("touchHit took a far or pending page")
		}
	}

	// A second touch of an inactive page activates it.
	hit := pages[0]
	if !m.touchHit(7, hit) || m.flags[hit]&flagActive == 0 || m.lastTouch[hit] != 7 {
		t.Fatalf("touchHit left active=%v lastTouch=%v", m.flags[hit]&flagActive != 0, m.lastTouch[hit])
	}
}

func TestAnonFirstTouchZeroFills(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 10, 1)
	res := m.Touch(0, pages[0])
	if !res.Fault || !res.ZeroFill || res.MemStall || res.IOStall {
		t.Fatalf("anon first touch = %+v", res)
	}
	if res.Latency != 0 {
		t.Fatalf("zero-fill should not wait on IO: %v", res.Latency)
	}
	if m.State(pages[0]) != Resident {
		t.Fatalf("state = %v", m.State(pages[0]))
	}
	if g.ResidentBytes() != pageSize {
		t.Fatalf("resident = %d", g.ResidentBytes())
	}
	if g.HierResidentBytes() != pageSize || m.Root().HierResidentBytes() != pageSize {
		t.Fatalf("hierarchical charge wrong")
	}
}

func TestFileFirstTouchIsColdRead(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, File, 1, 1)
	res := m.Touch(0, pages[0])
	if !res.Fault || !res.ColdRead || !res.IOStall || res.MemStall {
		t.Fatalf("file first touch = %+v", res)
	}
	if res.Latency <= 0 {
		t.Fatalf("file read must cost IO time")
	}
	if g.Stat().ColdFileReads != 1 {
		t.Fatalf("cold read not counted")
	}
}

func TestResidentTouchIsFree(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	p := m.NewPages(g, Anon, 1, 1)[0]
	m.Touch(0, p)
	res := m.Touch(vclock.Time(vclock.Second), p)
	if res.Fault || res.TotalStall() != 0 {
		t.Fatalf("resident touch = %+v", res)
	}
}

func TestTwoTouchActivation(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	p := m.NewPages(g, Anon, 1, 1)[0]
	m.Touch(0, p) // faults in: inactive, referenced
	if m.flags[p]&flagActive != 0 {
		t.Fatalf("fresh page should start inactive")
	}
	m.Touch(1, p) // second access: promote
	if m.flags[p]&flagActive == 0 {
		t.Fatalf("twice-touched page should be active")
	}
}

func TestReclaimEvictsLRUOrder(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, File, 4, 1)
	for i, p := range pages {
		m.Touch(vclock.Time(i)*vclock.Time(vclock.Second), p)
	}
	// All pages still have their initial referenced bit, so the first scan
	// pass gives them a second chance; touch none again, reclaim twice.
	res := m.ProactiveReclaim(vclock.Time(10*vclock.Second), g, 2*pageSize)
	if res.ReclaimedBytes != 2*pageSize {
		t.Fatalf("reclaimed %d bytes, want 2 pages", res.ReclaimedBytes)
	}
	// The oldest-touched pages (0 and 1) must be the ones evicted.
	if m.State(pages[0]) != EvictedFile || m.State(pages[1]) != EvictedFile {
		t.Fatalf("LRU order violated: %v %v", m.State(pages[0]), m.State(pages[1]))
	}
	if m.State(pages[2]) != Resident || m.State(pages[3]) != Resident {
		t.Fatalf("young pages evicted")
	}
}

func TestSecondChanceProtectsReferencedPages(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, File, 8, 1)
	touchAll(m, 0, pages)
	// A first reclaim pass consumes the initial referenced bits and evicts
	// the two coldest pages.
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, 2*pageSize)
	if m.State(pages[0]) != EvictedFile || m.State(pages[1]) != EvictedFile {
		t.Fatalf("first pass evicted wrong pages")
	}
	// Re-reference one surviving page; it must outlive the next reclaim
	// pass while two of its untouched peers are evicted instead.
	protected := pages[2]
	m.Touch(vclock.Time(2*vclock.Second), protected)
	res := m.ProactiveReclaim(vclock.Time(3*vclock.Second), g, 2*pageSize)
	if res.ReclaimedBytes != 2*pageSize {
		t.Fatalf("second pass reclaimed %d", res.ReclaimedBytes)
	}
	if m.State(protected) != Resident {
		t.Fatalf("re-referenced page was evicted despite second chance")
	}
	evicted := 0
	for _, p := range pages[3:] {
		if m.State(p) == EvictedFile {
			evicted++
		}
	}
	if evicted != 2 {
		t.Fatalf("%d unreferenced peers evicted, want 2", evicted)
	}
}

func TestRefaultDetection(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, File, 10, 1)
	touchAll(m, 0, pages)
	// Evict two pages (they are coldest).
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, 2*pageSize)
	evicted := pages[0]
	if m.State(evicted) != EvictedFile {
		t.Fatalf("page 0 not evicted")
	}
	// Immediate re-touch: reuse distance 2 <= resident 8 -> refault.
	res := m.Touch(vclock.Time(2*vclock.Second), evicted)
	if !res.Refault || !res.MemStall || !res.IOStall {
		t.Fatalf("quick reuse not a refault: %+v", res)
	}
	if g.Stat().Refaults != 1 {
		t.Fatalf("refault counter = %d", g.Stat().Refaults)
	}
	_, fileCost := g.Costs(vclock.Time(2 * vclock.Second))
	if fileCost < 1 {
		t.Fatalf("refault did not charge file cost: %v", fileCost)
	}
}

func TestDistantReuseIsNotRefault(t *testing.T) {
	m := newTestManager(4096, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, File, 64, 1)
	touchAll(m, 0, pages)
	// Evict everything; then only re-touch one early page much later.
	// With everything evicted, the resident set is 0, so any distance is
	// "too far" and the reuse is classified cold.
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, 64*pageSize)
	if g.ResidentBytes() != 0 {
		t.Fatalf("resident after full eviction = %d", g.ResidentBytes())
	}
	res := m.Touch(vclock.Time(10*vclock.Second), pages[0])
	if res.Refault {
		t.Fatalf("distant reuse misclassified as refault")
	}
	if !res.ColdRead {
		t.Fatalf("expected cold read: %+v", res)
	}
}

func TestSwapOutAndSwapInZswap(t *testing.T) {
	z := newZswap()
	m := newTestManager(1024, z, PolicyTMO)
	g := m.NewGroup("app", nil)
	// Anonymous-only group: reclaim must use swap despite TMO's
	// file-first rule, because there is no file cache at all.
	pages := m.NewPages(g, Anon, 10, 3.0)
	touchAll(m, 0, pages)
	res := m.ProactiveReclaim(vclock.Time(vclock.Second), g, 2*pageSize)
	if res.ReclaimedAnon != 2 {
		t.Fatalf("reclaimed anon = %d, want 2", res.ReclaimedAnon)
	}
	if res.StallTime <= 0 {
		t.Fatalf("zswap stores must cost compression time")
	}
	if z.Stats().StoredPages != 2 {
		t.Fatalf("zswap holds %d pages", z.Stats().StoredPages)
	}
	if m.HostStat().PoolBytes <= 0 {
		t.Fatalf("pool bytes not accounted")
	}
	// Swap the coldest page back in.
	sw := pages[0]
	if m.State(sw) != Offloaded {
		t.Fatalf("page 0 state = %v", m.State(sw))
	}
	tr := m.Touch(vclock.Time(2*vclock.Second), sw)
	if !tr.SwapIn || !tr.MemStall {
		t.Fatalf("swap-in = %+v", tr)
	}
	if tr.IOStall {
		t.Fatalf("zswap load must not be block IO")
	}
	if g.Stat().SwapIns != 1 {
		t.Fatalf("swap-in counter = %d", g.Stat().SwapIns)
	}
	anonCost, _ := g.Costs(vclock.Time(2 * vclock.Second))
	if anonCost < 1 {
		t.Fatalf("swap-in did not charge anon cost")
	}
}

func TestSwapInFromSSDIsBlockIO(t *testing.T) {
	m := newTestManager(1024, newSSDSwap(), PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 4, 1)
	touchAll(m, 0, pages)
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, pageSize)
	tr := m.Touch(vclock.Time(2*vclock.Second), pages[0])
	if !tr.SwapIn || !tr.MemStall || !tr.IOStall {
		t.Fatalf("SSD swap-in = %+v", tr)
	}
	if tr.Latency <= 0 {
		t.Fatalf("SSD swap-in must cost IO time")
	}
}

func TestTMOFileFirstUntilRefaults(t *testing.T) {
	m := newTestManager(4096, newZswap(), PolicyTMO)
	g := m.NewGroup("app", nil)
	anon := m.NewPages(g, Anon, 50, 3)
	file := m.NewPages(g, File, 50, 1)
	touchAll(m, 0, anon)
	touchAll(m, 0, file)
	// With no refaults yet, reclaim must take file pages only.
	res := m.ProactiveReclaim(vclock.Time(vclock.Second), g, 20*pageSize)
	if res.ReclaimedAnon != 0 {
		t.Fatalf("anon reclaimed before any refault: %d", res.ReclaimedAnon)
	}
	if res.ReclaimedFile == 0 {
		t.Fatalf("no file pages reclaimed")
	}
	// Now refault some of the evicted file pages to signal that the file
	// working set is being hurt.
	refaulted := 0
	for _, p := range file {
		if m.State(p) == EvictedFile {
			m.Touch(vclock.Time(2*vclock.Second), p)
			refaulted++
			if refaulted == 10 {
				break
			}
		}
	}
	if g.Stat().Refaults == 0 {
		t.Fatalf("no refaults registered")
	}
	// Subsequent reclaim must now include anonymous memory.
	res2 := m.ProactiveReclaim(vclock.Time(3*vclock.Second), g, 20*pageSize)
	if res2.ReclaimedAnon == 0 {
		t.Fatalf("refaults did not unlock anon reclaim: %+v", res2)
	}
}

func TestLegacyPolicySkewsToFile(t *testing.T) {
	m := newTestManager(4096, newZswap(), PolicyLegacy)
	g := m.NewGroup("app", nil)
	anon := m.NewPages(g, Anon, 100, 3)
	file := m.NewPages(g, File, 100, 1)
	touchAll(m, 0, anon)
	touchAll(m, 0, file)
	// Reclaim most of memory; legacy policy should hollow out the file
	// cache before touching anon.
	res := m.ProactiveReclaim(vclock.Time(vclock.Second), g, 100*pageSize)
	if res.ReclaimedFile < 80 {
		t.Fatalf("legacy reclaimed only %d file pages", res.ReclaimedFile)
	}
	fileLeft := g.ResidentBytesOf(File) / pageSize
	anonLeft := g.ResidentBytesOf(Anon) / pageSize
	if fileLeft > 25 {
		t.Fatalf("file cache not hollowed out: %d pages left", fileLeft)
	}
	if anonLeft < 70 {
		t.Fatalf("legacy swapped too much anon: %d pages left", anonLeft)
	}
}

func TestMemoryMaxTriggersDirectReclaim(t *testing.T) {
	m := newTestManager(4096, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	file := m.NewPages(g, File, 20, 1)
	touchAll(m, 0, file)
	m.SetLimit(vclock.Time(vclock.Second), g, 20*pageSize)
	// Allocating one more page forces direct reclaim within the group.
	extra := m.NewPages(g, Anon, 1, 1)
	res := m.Touch(vclock.Time(2*vclock.Second), extra[0])
	if res.DirectReclaimStall <= 0 {
		t.Fatalf("no direct reclaim stall: %+v", res)
	}
	if g.HierResidentBytes() > 20*pageSize {
		t.Fatalf("limit not enforced: %d", g.HierResidentBytes())
	}
	if g.Stat().DirectReclaims == 0 {
		t.Fatalf("direct reclaim not counted")
	}
}

func TestSetLimitReclaimsSynchronously(t *testing.T) {
	m := newTestManager(4096, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	file := m.NewPages(g, File, 40, 1)
	touchAll(m, 0, file)
	res := m.SetLimit(vclock.Time(vclock.Second), g, 30*pageSize)
	if res.ReclaimedBytes < 10*pageSize {
		t.Fatalf("SetLimit reclaimed %d", res.ReclaimedBytes)
	}
	if g.HierResidentBytes() > 30*pageSize {
		t.Fatalf("usage above new limit")
	}
}

func TestHierarchicalLimitReclaimsChildren(t *testing.T) {
	m := newTestManager(4096, nil, PolicyTMO)
	parent := m.NewGroup("workload", nil)
	c1 := m.NewGroup("app", parent)
	c2 := m.NewGroup("sidecar", parent)
	p1 := m.NewPages(c1, File, 30, 1)
	p2 := m.NewPages(c2, File, 30, 1)
	touchAll(m, 0, p1)
	touchAll(m, 0, p2)
	if parent.HierResidentBytes() != 60*pageSize {
		t.Fatalf("parent usage = %d", parent.HierResidentBytes())
	}
	m.SetLimit(vclock.Time(vclock.Second), parent, 40*pageSize)
	if parent.HierResidentBytes() > 40*pageSize {
		t.Fatalf("parent limit not enforced: %d", parent.HierResidentBytes())
	}
	// Both children must have contributed (proportional shrink).
	if c1.ResidentBytes() == 30*pageSize || c2.ResidentBytes() == 30*pageSize {
		t.Fatalf("reclaim not distributed: c1=%d c2=%d", c1.ResidentBytes(), c2.ResidentBytes())
	}
}

func TestMemoryLowProtection(t *testing.T) {
	m := newTestManager(4096, nil, PolicyTMO)
	parent := m.NewGroup("workload", nil)
	protected := m.NewGroup("frontend", parent)
	victim := m.NewGroup("batch", parent)
	pp := m.NewPages(protected, File, 40, 1)
	vp := m.NewPages(victim, File, 40, 1)
	touchAll(m, 0, pp)
	touchAll(m, 0, vp)
	protected.SetLow(40 * pageSize)

	// Ancestor-driven reclaim of 30 pages must come entirely from the
	// unprotected sibling.
	res := m.ProactiveReclaim(vclock.Time(vclock.Second), parent, 30*pageSize)
	if res.ReclaimedBytes < 30*pageSize {
		t.Fatalf("reclaimed only %d", res.ReclaimedBytes)
	}
	if protected.ResidentBytes() != 40*pageSize {
		t.Fatalf("protected group shrank to %d", protected.ResidentBytes())
	}
	if victim.ResidentBytes() > 10*pageSize {
		t.Fatalf("victim not shrunk: %d", victim.ResidentBytes())
	}
}

func TestMemoryLowIsBestEffort(t *testing.T) {
	// When everything is protected, sustained pressure must still make
	// progress: protection degrades rather than deadlocking reclaim.
	m := newTestManager(4096, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, File, 40, 1)
	touchAll(m, 0, pages)
	g.SetLow(1 << 40) // protect everything
	res := m.ProactiveReclaim(vclock.Time(vclock.Second), m.Root(), 10*pageSize)
	if res.ReclaimedBytes < 10*pageSize {
		t.Fatalf("fully-protected host deadlocked reclaim: %d", res.ReclaimedBytes)
	}
}

func TestMemoryLowDoesNotShieldFromSelf(t *testing.T) {
	// memory.low protects against external pressure; reclaim targeted at
	// the group itself (Senpai's memory.reclaim) ignores its own low.
	m := newTestManager(4096, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, File, 40, 1)
	touchAll(m, 0, pages)
	g.SetLow(1 << 40)
	res := m.ProactiveReclaim(vclock.Time(vclock.Second), g, 10*pageSize)
	if res.ReclaimedBytes < 10*pageSize {
		t.Fatalf("own-group reclaim blocked by own protection: %d", res.ReclaimedBytes)
	}
}

func TestOraclePolicyEvictsColdestExactly(t *testing.T) {
	z := newZswap()
	m := NewManager(Config{
		CapacityBytes: 1024 * pageSize,
		Swap:          z,
		FS:            newTestFS(81),
		Policy:        PolicyOracle,
	})
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 10, 2)
	// Touch pages at distinct, increasing times; additionally re-touch
	// page 0 late so recency (not creation order) decides.
	for i, p := range pages {
		m.Touch(vclock.Time(i)*vclock.Time(vclock.Second), p)
	}
	m.Touch(vclock.Time(20*vclock.Second), pages[0])
	// Reclaim three pages: the oracle must take pages 1, 2, 3 — the three
	// oldest last-touches — regardless of LRU list structure.
	res := m.ProactiveReclaim(vclock.Time(21*vclock.Second), g, 3*pageSize)
	if res.ReclaimedBytes != 3*pageSize {
		t.Fatalf("reclaimed %d", res.ReclaimedBytes)
	}
	for i, p := range pages {
		wantOffloaded := i >= 1 && i <= 3
		if (m.State(p) == Offloaded) != wantOffloaded {
			t.Fatalf("page %d state %v; oracle order violated", i, m.State(p))
		}
	}
}

func TestOracleRespectsSwapAvailability(t *testing.T) {
	m := newTestManager(1024, nil, PolicyOracle) // no swap
	g := m.NewGroup("app", nil)
	anon := m.NewPages(g, Anon, 5, 1)
	file := m.NewPages(g, File, 5, 1)
	touchAll(m, 0, anon) // anon is coldest...
	for i, p := range file {
		m.Touch(vclock.Time(i+1)*vclock.Time(vclock.Second), p)
	}
	res := m.ProactiveReclaim(vclock.Time(10*vclock.Second), g, 3*pageSize)
	// ...but with no swap the oracle must take file pages instead.
	if res.ReclaimedAnon != 0 || res.ReclaimedFile != 3 {
		t.Fatalf("oracle without swap: %+v", res)
	}
}

// TestOracleSwapFullLeavesPageInPlace: the oracle stores one page per
// batch, and the page the chain refuses stays where it was — Resident, on
// its own list, even the active one — while the swap-full latch trips and
// stops further anon scanning.
func TestOracleSwapFullLeavesPageInPlace(t *testing.T) {
	// Size a one-tier zswap chain to hold exactly two of the test's pages.
	var probe [1]backend.StoreResult
	req := []backend.StoreReq{{PageBytes: pageSize, CompressRatio: 1}}
	if _, err := newZswap().StoreBatch(0, req, probe[:]); err != nil {
		t.Fatal(err)
	}
	m := newTestManager(1024, zswapChain(2*probe[0].StoredBytes), PolicyOracle)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 4, 1)
	for i, p := range pages {
		m.Touch(vclock.Time(i+1)*vclock.Time(vclock.Second), p)
	}
	// The third coldest page, the first the chain refuses, is the only
	// active page.
	refused := pages[2]
	m.Touch(vclock.Time(3*vclock.Second), refused)
	active := &g.lists[Anon][1]
	if active.count != 1 || active.head != refused {
		t.Fatal("setup: refused page not alone on the active list")
	}
	res := m.ProactiveReclaim(vclock.Time(10*vclock.Second), g, 4*pageSize)
	if !res.SwapFull || !m.swapExhausted {
		t.Fatalf("swap-full not reported or latched: %+v", res)
	}
	if m.swapRejects != 1 || res.ReclaimedAnon != 2 {
		t.Fatalf("swap rejects %d, swapped out %d; want 1 and 2", m.swapRejects, res.ReclaimedAnon)
	}
	if m.State(pages[0]) != Offloaded || m.State(pages[1]) != Offloaded {
		t.Fatal("the two coldest pages were not swapped out")
	}
	if m.State(refused) != Resident || active.count != 1 || active.head != refused {
		t.Fatalf("refused page moved: state %v, active list %+v", m.State(refused), *active)
	}
	checkAccounting(t, m, []*Group{m.Root(), g}, pages)
}

func TestDirtyFileWriteback(t *testing.T) {
	spec, _ := backend.DeviceByModel("C")
	dev := backend.NewSSDDevice(spec, 99)
	m := NewManager(Config{CapacityBytes: 1024 * pageSize,
		FS: backend.NewFilesystem(dev), Policy: PolicyTMO})
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, File, 8, 1)

	// A buffered write to a fresh page populates it without any read IO.
	res := m.TouchWrite(0, pages[0])
	if !res.ZeroFill || res.IOStall || res.Latency != 0 {
		t.Fatalf("buffered write of fresh page = %+v", res)
	}
	if !m.page(pages[0]).dirty {
		t.Fatalf("written page not dirty")
	}
	// Reading then writing an existing page also dirties it.
	m.Touch(0, pages[1])
	m.TouchWrite(vclock.Time(vclock.Millisecond), pages[1])
	if !m.page(pages[1]).dirty {
		t.Fatalf("rewritten page not dirty")
	}
	for _, p := range pages[2:] {
		m.Touch(0, p)
	}

	writtenBefore := dev.WrittenBytes()
	// Evict everything: the two dirty pages must be written back.
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, 8*pageSize)
	if got := (dev.WrittenBytes() - writtenBefore) / pageSize; got != 2 {
		t.Fatalf("device writes during eviction = %d, want 2", got)
	}
	if g.Stat().FileWritebacks != 2 {
		t.Fatalf("writeback counter = %d", g.Stat().FileWritebacks)
	}
	// Written-back pages are clean: re-evicting after a read costs
	// nothing.
	m.Touch(vclock.Time(2*vclock.Second), pages[0])
	if m.page(pages[0]).dirty {
		t.Fatalf("page dirty after writeback and clean reload")
	}
}

func TestTouchWriteOnAnonIsPlainTouch(t *testing.T) {
	m := newTestManager(64, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	p := m.NewPages(g, Anon, 1, 1)[0]
	res := m.TouchWrite(0, p)
	if !res.ZeroFill {
		t.Fatalf("anon write = %+v", res)
	}
	if m.page(p).dirty {
		t.Fatalf("anon pages have no dirty/writeback state")
	}
}

func TestSwapReadahead(t *testing.T) {
	z := newZswap()
	m := NewManager(Config{
		CapacityBytes: 1024 * pageSize,
		Swap:          z,
		FS:            newTestFS(77),
		Policy:        PolicyTMO,
		SwapReadahead: 4,
	})
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 32, 2)
	touchAll(m, 0, pages)
	// Offload a batch; consecutive swap-outs share clusters.
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, 16*pageSize)
	var offloaded []PageID
	for _, p := range pages {
		if m.State(p) == Offloaded {
			offloaded = append(offloaded, p)
		}
	}
	if len(offloaded) != 16 {
		t.Fatalf("offloaded %d pages", len(offloaded))
	}
	// One fault brings in its cluster neighbours too.
	m.Touch(vclock.Time(2*vclock.Second), offloaded[0])
	if m.ReadaheadIn() != 4 {
		t.Fatalf("readahead brought %d pages, want 4", m.ReadaheadIn())
	}
	resident := 0
	for _, p := range offloaded {
		if m.State(p) == Resident {
			resident++
		}
	}
	if resident != 5 { // the faulted page + 4 readahead neighbours
		t.Fatalf("%d pages resident after one fault, want 5", resident)
	}
	// Readahead pages arrive unreferenced: the next reclaim pass may take
	// them straight back.
	for _, p := range offloaded {
		if m.State(p) == Resident && p != offloaded[0] {
			if m.flags[p]&flagReferenced != 0 {
				t.Fatalf("readahead page arrived referenced")
			}
		}
	}
	// Swap-in counter counts faults, not readahead.
	if got := g.Stat().SwapIns; got != 1 {
		t.Fatalf("swap-ins = %d, want 1 (readahead is not a fault)", got)
	}
	// Zswap must have released all five entries.
	if z.Stats().StoredPages != 11 {
		t.Fatalf("backend holds %d pages, want 11", z.Stats().StoredPages)
	}
}

// TestReadaheadHonoursMemoryMax: readahead is opportunistic and must never
// push a cgroup above its effective memory.max. The setup makes
// charge-triggered reclaim unable to help: the zswap pool is sized to
// exactly the compressible working set, so once readahead loads start
// freeing small compressed entries, storing an incompressible resident page
// back needs more pool space than the loads released. Before the fix,
// readahead charged loaded pages anyway, recording OOM overcharges and
// leaving the group above its limit.
func TestReadaheadHonoursMemoryMax(t *testing.T) {
	const compRatio = 3.0
	compStored := backend.AllocZsmalloc.StoredSize(pageSize, compRatio*backend.CodecZstd.RatioFactor)
	z := zswapChain(8 * compStored)
	m := NewManager(Config{
		CapacityBytes: 1024 * pageSize,
		Swap:          z,
		FS:            newTestFS(77),
		Policy:        PolicyTMO,
		SwapReadahead: 4,
	})
	g := m.NewGroup("app", nil)
	comp := m.NewPages(g, Anon, 8, compRatio)
	incomp := m.NewPages(g, Anon, 8, 1)
	touchAll(m, 0, comp)
	touchAll(m, vclock.Time(vclock.Second), incomp)
	// Offload the 8 cold compressible pages; they fill the pool exactly.
	m.ProactiveReclaim(vclock.Time(2*vclock.Second), g, 8*pageSize)
	for i, p := range comp {
		if m.State(p) != Offloaded {
			t.Fatalf("setup: compressible page %d is %v, want offloaded", i, m.State(p))
		}
	}
	// Leave headroom for the fault itself but not for any readahead.
	limit := g.HierResidentBytes() + pageSize
	m.SetLimit(vclock.Time(3*vclock.Second), g, limit)

	m.Touch(vclock.Time(4*vclock.Second), comp[0])

	if got := g.HierResidentBytes(); got > limit {
		t.Errorf("readahead pushed group %d bytes above memory.max (usage %d, limit %d)",
			got-limit, got, limit)
	}
	if n := m.OOMEvents(); n != 0 {
		t.Errorf("opportunistic readahead caused %d OOM overcharges, want 0", n)
	}
	if m.swapExhausted {
		t.Error("readahead latched swap-exhausted, poisoning future anon reclaim")
	}
}

func TestReadaheadDisabledByDefault(t *testing.T) {
	z := newZswap()
	m := newTestManager(1024, z, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 16, 2)
	touchAll(m, 0, pages)
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, 8*pageSize)
	for _, p := range pages {
		if m.State(p) == Offloaded {
			m.Touch(vclock.Time(2*vclock.Second), p)
			break
		}
	}
	if m.ReadaheadIn() != 0 {
		t.Fatalf("readahead ran while disabled")
	}
}

func TestSetLowClampsNegative(t *testing.T) {
	m := newTestManager(64, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	g.SetLow(-5)
	if g.Low() != 0 {
		t.Fatalf("negative low accepted: %d", g.Low())
	}
}

func TestHostCapacityEnforced(t *testing.T) {
	m := newTestManager(64, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	file := m.NewPages(g, File, 60, 1)
	touchAll(m, 0, file)
	anon := m.NewPages(g, Anon, 20, 1)
	for i, p := range anon {
		m.Touch(vclock.Time(i)*vclock.Time(vclock.Millisecond), p)
	}
	st := m.HostStat()
	if st.ResidentBytes > st.CapacityBytes {
		t.Fatalf("resident %d exceeds capacity %d", st.ResidentBytes, st.CapacityBytes)
	}
	// File cache must have been evicted to make room (no swap configured).
	if g.ResidentBytesOf(File) >= 60*pageSize {
		t.Fatalf("file cache not shrunk under host pressure")
	}
}

func TestOOMEventWhenNothingReclaimable(t *testing.T) {
	m := newTestManager(4, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	anon := m.NewPages(g, Anon, 8, 1)
	for i, p := range anon {
		m.Touch(vclock.Time(i), p)
	}
	// No swap and no file cache: nothing is reclaimable, so the host is
	// overcommitted and OOM events must be recorded.
	if m.OOMEvents() == 0 {
		t.Fatalf("no OOM events recorded")
	}
}

func TestSwapExhaustionLatchesAndClears(t *testing.T) {
	spec, _ := backend.DeviceByModel("C")
	sw := ssdChain(backend.NewSSDDevice(spec, 5), 2*pageSize, 0)
	m := newTestManager(1024, sw, PolicyTMO)
	g := m.NewGroup("app", nil)
	anon := m.NewPages(g, Anon, 10, 1)
	touchAll(m, 0, anon)
	res := m.ProactiveReclaim(vclock.Time(vclock.Second), g, 5*pageSize)
	if !res.SwapFull {
		t.Fatalf("swap exhaustion not reported: %+v", res)
	}
	if res.ReclaimedAnon != 2 {
		t.Fatalf("reclaimed %d anon pages, want 2 (swap capacity)", res.ReclaimedAnon)
	}
	if !m.swapExhausted {
		t.Fatalf("exhaustion not latched")
	}
	// Swapping a page back in frees space and clears the latch.
	for _, p := range anon {
		if m.State(p) == Offloaded {
			m.Touch(vclock.Time(2*vclock.Second), p)
			break
		}
	}
	if m.swapExhausted {
		t.Fatalf("exhaustion not cleared by swap-in")
	}
}

func TestFreePagesResetsState(t *testing.T) {
	z := newZswap()
	m := newTestManager(1024, z, PolicyTMO)
	g := m.NewGroup("app", nil)
	anon := m.NewPages(g, Anon, 10, 2)
	touchAll(m, 0, anon)
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, 3*pageSize)
	m.FreePages(anon)
	if g.ResidentBytes() != 0 || g.HierResidentBytes() != 0 {
		t.Fatalf("usage after free: %d/%d", g.ResidentBytes(), g.HierResidentBytes())
	}
	if z.Stats().StoredPages != 0 {
		t.Fatalf("zswap still holds %d pages after free", z.Stats().StoredPages)
	}
	for _, p := range anon {
		if m.State(p) != NotPresent {
			t.Fatalf("page state after free = %v", m.State(p))
		}
	}
	// Pages are reusable after a free (workload restart).
	res := m.Touch(vclock.Time(2*vclock.Second), anon[0])
	if !res.ZeroFill {
		t.Fatalf("reused page did not zero-fill: %+v", res)
	}
}

// TestFreePagesDropsClusterMembership: every exit from the Offloaded state —
// fault, readahead, FreePages — must remove the page from its swap cluster.
// A freed page left linked would be revived by a neighbour's readahead with
// no backend slot behind it, resurrecting discarded content.
func TestFreePagesDropsClusterMembership(t *testing.T) {
	z := newZswap()
	m := NewManager(Config{
		CapacityBytes: 1024 * pageSize,
		Swap:          z,
		FS:            newTestFS(77),
		Policy:        PolicyTMO,
		SwapReadahead: 4,
	})
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 16, 2)
	touchAll(m, 0, pages)
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, 8*pageSize)
	var offloaded []PageID
	for _, p := range pages {
		if m.State(p) == Offloaded {
			offloaded = append(offloaded, p)
		}
	}
	if len(offloaded) != 8 {
		t.Fatalf("setup: offloaded %d pages, want 8", len(offloaded))
	}
	freed := offloaded[:4]
	m.FreePages(freed)
	for i, p := range freed {
		if m.page(p).cluster != 0 {
			t.Fatalf("freed page %d still linked into its swap cluster", i)
		}
	}
	// Fault a survivor: readahead walks the cluster and must see only the
	// three remaining neighbours, never the freed pages.
	m.Touch(vclock.Time(2*vclock.Second), offloaded[4])
	if got := m.ReadaheadIn(); got != 3 {
		t.Fatalf("readahead loaded %d pages, want the 3 surviving neighbours", got)
	}
	for i, p := range freed {
		if m.State(p) != NotPresent {
			t.Fatalf("freed page %d resurrected by readahead: %v", i, m.State(p))
		}
	}
	for i, p := range offloaded[4:] {
		if m.State(p) != Resident {
			t.Fatalf("surviving cluster member %d is %v, want resident", i, m.State(p))
		}
	}
	checkAccounting(t, m, []*Group{g}, pages)
}

// TestFaultReadaheadIgnoresRecycledCluster: a fault that empties its swap
// cluster sends the cluster to the manager's free list *before* the charge
// runs. If the charge triggers direct reclaim that swaps out swapClusterSize
// or more pages, the recycled cluster is popped back off the free list and
// refilled with the freshly evicted pages; readahead keyed on the stale
// cluster pointer would then walk pages reclaim just swapped out — loading
// them straight back in, or at minimum mis-counting them as limit skips. An
// emptied cluster has no neighbours: readahead must not touch it at all.
func TestFaultReadaheadIgnoresRecycledCluster(t *testing.T) {
	z := newZswap()
	m := NewManager(Config{
		CapacityBytes: 1024 * pageSize,
		Swap:          z,
		FS:            newTestFS(77),
		Policy:        PolicyTMO,
		SwapReadahead: 4,
	})
	reg := telemetry.NewRegistry()
	m.EnableTelemetry(reg)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 64, 2)
	touchAll(m, 0, pages)
	// Swap out two full clusters; the first is retired (no longer the
	// current cluster) once the 9th swap-out opens the second.
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, 2*swapClusterSize*pageSize)
	var offloaded []PageID
	for _, p := range pages {
		if m.State(p) == Offloaded {
			offloaded = append(offloaded, p)
		}
	}
	if len(offloaded) != 2*swapClusterSize {
		t.Fatalf("setup: offloaded %d pages, want %d", len(offloaded), 2*swapClusterSize)
	}
	sole := offloaded[0]
	clA := m.page(sole).cluster
	if clA == 0 || clA == m.curCluster {
		t.Fatalf("setup: first swap-out batch should live in a retired cluster")
	}
	// Free the rest of the first cluster, leaving sole as its only member.
	var rest []PageID
	for _, p := range offloaded[1:] {
		if m.page(p).cluster == clA {
			rest = append(rest, p)
		}
	}
	m.FreePages(rest)
	if n := m.clusters[clA].n; n != 1 {
		t.Fatalf("setup: cluster holds %d pages, want only the faulting page", n)
	}
	// Balloon the host down behind the manager's back (no synchronous
	// reclaim) so the fault's charge must direct-reclaim well over
	// swapClusterSize pages in one go — enough swap-outs to pop the
	// just-recycled cluster off the free list and refill it.
	m.cfg.CapacityBytes = m.root.usageForLimit() - (swapClusterSize+4)*pageSize

	m.Touch(vclock.Time(2*vclock.Second), sole)

	if m.State(sole) != Resident {
		t.Fatalf("faulting page is %v, want resident", m.State(sole))
	}
	// The sole member's cluster was emptied by the fault itself, so there
	// were no neighbours: readahead must neither load nor consider anything.
	if got := m.ReadaheadIn(); got != 0 {
		t.Errorf("readahead loaded %d pages out of the recycled cluster, want 0", got)
	}
	if got, _ := reg.Snapshot().Get("mm.readahead_skips"); got.Value != 0 {
		t.Errorf("readahead walked the recycled cluster (%v limit skips), want 0", got.Value)
	}
	// The pages the direct reclaim just evicted — now occupying the
	// recycled cluster — must all still be offloaded.
	evicted := 0
	for q := m.clusters[clA].head; q != 0; q = m.page(q).clusterNext {
		evicted++
		if m.State(q) != Offloaded {
			t.Errorf("freshly evicted cluster member is %v, want offloaded", m.State(q))
		}
	}
	if evicted < swapClusterSize {
		t.Fatalf("setup: recycled cluster refilled with %d pages, want %d — scenario did not reproduce",
			evicted, swapClusterSize)
	}
	checkAccounting(t, m, []*Group{g}, pages)
}

func TestColdnessHistogram(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 100, 1)
	const minute = vclock.Minute
	now := vclock.Time(10 * minute)
	// 50 pages hot (just touched), 20 touched 1.5 min ago, 30 touched 10
	// minutes ago.
	for _, p := range pages[:50] {
		m.Touch(now, p)
	}
	for _, p := range pages[50:70] {
		m.Touch(now.Add(-90*vclock.Second), p)
	}
	for _, p := range pages[70:] {
		m.Touch(now.Add(-10*minute), p)
	}
	h := m.Coldness(now, pages, []vclock.Duration{1 * minute, 2 * minute, 5 * minute})
	if h[0] != 0.5 || h[1] != 0.2 || h[2] != 0 || h[3] != 0.3 {
		t.Fatalf("coldness histogram = %v", h)
	}
}

func TestColdnessEmptyPopulation(t *testing.T) {
	m := newTestManager(1024, nil, PolicyTMO)
	h := m.Coldness(0, nil, []vclock.Duration{vclock.Minute})
	if h[0] != 0 || h[1] != 0 {
		t.Fatalf("empty coldness = %v", h)
	}
}

func TestPolicyAndStateStrings(t *testing.T) {
	if PolicyTMO.String() != "tmo" || PolicyLegacy.String() != "legacy" {
		t.Fatalf("policy names")
	}
}

// checkAccounting fails t unless accountingErr finds nothing.
func checkAccounting(t *testing.T, m *Manager, groups []*Group, pages []PageID) {
	t.Helper()
	if err := accountingErr(m, groups, pages); err != nil {
		t.Fatal(err)
	}
}

// accountingErr verifies the structural invariants that must hold after any
// sequence of operations: the LRU walk of checkLRU, and counters, charges
// and swap-cluster membership against the page states.
func accountingErr(m *Manager, groups []*Group, pages []PageID) error {
	if err := m.checkLRU(); err != nil {
		return err
	}
	perGroup := map[*Group][2]int64{}
	perGroupFar := map[*Group]int64{}
	for _, p := range pages {
		if m.State(p) == Resident {
			if m.Far(p) {
				perGroupFar[m.Group(p)]++
				continue
			}
			c := perGroup[m.Group(p)]
			c[m.Type(p)]++
			perGroup[m.Group(p)] = c
		}
	}
	var totalResident, totalFar int64
	for _, g := range groups {
		c := perGroup[g]
		if g.residentPages[Anon] != c[Anon] || g.residentPages[File] != c[File] {
			return fmt.Errorf("group %s resident counters (%d,%d) != page states (%d,%d)",
				g.Name(), g.residentPages[Anon], g.residentPages[File], c[Anon], c[File])
		}
		if got := int64(g.lists[Anon][0].count + g.lists[Anon][1].count); got != c[Anon] {
			return fmt.Errorf("group %s anon list count %d != %d", g.Name(), got, c[Anon])
		}
		if got := int64(g.lists[File][0].count + g.lists[File][1].count); got != c[File] {
			return fmt.Errorf("group %s file list count %d != %d", g.Name(), got, c[File])
		}
		far := perGroupFar[g]
		if g.farPages != far {
			return fmt.Errorf("group %s far counter %d != far page states %d", g.Name(), g.farPages, far)
		}
		if got := int64(g.farList.count); got != far {
			return fmt.Errorf("group %s far list count %d != %d", g.Name(), got, far)
		}
		totalResident += (c[Anon] + c[File]) * pageSize
		totalFar += far * pageSize
	}
	if m.Root().HierResidentBytes() != totalResident {
		return fmt.Errorf("root usage %d != total resident %d", m.Root().HierResidentBytes(), totalResident)
	}
	if m.cfg.Far != nil && m.cfg.Far.UsedBytes() != totalFar {
		return fmt.Errorf("far node occupancy %d != far page states %d", m.cfg.Far.UsedBytes(), totalFar)
	}
	if m.cfg.Far == nil && totalFar != 0 {
		return fmt.Errorf("far pages without a far node")
	}
	// Swap-cluster membership must track the Offloaded state exactly: a
	// cluster entry for a page in any other state is stale (the leak class
	// dropFromCluster guards against), and a linked page must be reachable
	// from its own cluster's head.
	for _, p := range pages {
		cp := m.page(p)
		if cp.cluster == 0 {
			if cp.clusterNext != 0 || cp.clusterPrev != 0 {
				return fmt.Errorf("page without cluster retains cluster links")
			}
			continue
		}
		if m.State(p) != Offloaded {
			return fmt.Errorf("%v page still linked into a swap cluster", m.State(p))
		}
		found := false
		for q := m.clusters[cp.cluster].head; q != 0; q = m.page(q).clusterNext {
			if q == p {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("offloaded page points at a cluster that does not contain it")
		}
	}
	return nil
}

// TestAccountingInvariants drives random touch/reclaim/free sequences, and
// the placement tier's demote/promote/interleave moves, and checks that page
// states, list counts, hierarchical charges and the far node's occupancy
// agree. Generated flags add a far node smaller than the anon footprint and
// shrink the zswap chain to a few pages, so stores fail with ErrFull under
// every policy.
func TestAccountingInvariants(t *testing.T) {
	type op struct {
		// Kind mod 12: 0-4 touch a run, 5 write, 6 reclaim, 7 free, 8 set low,
		// 9 demote cold, 10 one promotion round, 11 far interleave.
		Kind uint8
		Idx  uint16
		Amt  uint8
	}
	f := func(ops []op, readahead bool, policy uint8, far, smallSwap bool) bool {
		swapBytes := int64(testSwapBytes)
		if smallSwap {
			swapBytes = 4 * pageSize
		}
		cfg := Config{
			CapacityBytes: 256 * pageSize,
			Swap:          zswapChain(swapBytes),
			FS:            newTestFS(99),
			Policy:        ReclaimPolicy(policy % 3),
			SwapReadahead: map[bool]int{false: 0, true: 4}[readahead],
		}
		if far {
			cfg.Far = newTestCXLNode(24) // the groups hold 80 anon pages
		}
		m := NewManager(cfg)
		parent := m.NewGroup("w", nil)
		g1 := m.NewGroup("a", parent)
		g2 := m.NewGroup("b", parent)
		var pages []PageID
		pages = append(pages, m.NewPages(g1, Anon, 40, 2)...)
		pages = append(pages, m.NewPages(g1, File, 40, 1)...)
		pages = append(pages, m.NewPages(g2, Anon, 40, 3)...)
		pages = append(pages, m.NewPages(g2, File, 40, 1)...)
		groups := []*Group{m.Root(), parent, g1, g2}
		now := vclock.Time(0)
		var cands []PageID
		for _, o := range ops {
			now = now.Add(10 * vclock.Millisecond)
			p := pages[int(o.Idx)%len(pages)]
			g := groups[1+int(o.Idx)%3]
			switch o.Kind % 12 {
			case 0, 1, 2, 3, 4:
				// A run of pages, so reclaim has enough to fill the small
				// chain and the far node.
				for k := range 1 + int(o.Amt%32) {
					m.Touch(now, pages[(int(o.Idx)+k)%len(pages)])
				}
			case 5:
				m.TouchWrite(now, p)
			case 6:
				m.ProactiveReclaim(now, g, int64(o.Amt)*pageSize)
			case 7:
				m.FreePages([]PageID{p})
			case 8:
				g.SetLow(int64(o.Amt) * pageSize)
			case 9:
				m.DemoteCold(now, g, int64(o.Amt)*pageSize)
			case 10:
				cands, _ = m.SampleFar(g, int(o.Amt), 1, cands[:0])
				for _, c := range cands {
					if m.BeginPromotion(c) && o.Amt%2 == 0 {
						m.PromoteFromFar(now, c)
					} else {
						m.AbortPromotion(c)
					}
				}
			case 11:
				m.SetFarInterleave(float64(o.Amt%2) / 2)
			}
		}
		if err := accountingErr(m, groups, pages); err != nil {
			t.Log(err)
			return false
		}
		st := m.HostStat()
		return st.ResidentBytes >= 0 && st.PoolBytes >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReclaimNeverLosesPages: after heavy reclaim, every page is still in a
// well-defined state and can be touched back to residency.
func TestReclaimRoundTrip(t *testing.T) {
	z := newZswap()
	m := newTestManager(2048, z, PolicyTMO)
	g := m.NewGroup("app", nil)
	anon := m.NewPages(g, Anon, 100, 2)
	file := m.NewPages(g, File, 100, 1)
	touchAll(m, 0, anon)
	touchAll(m, 0, file)
	// Force deep reclaim, then touch everything back in.
	m.ProactiveReclaim(vclock.Time(vclock.Second), g, 150*pageSize)
	now := vclock.Time(2 * vclock.Second)
	for _, p := range append(append([]PageID{}, anon...), file...) {
		m.Touch(now, p)
		if m.State(p) != Resident {
			t.Fatalf("page not resident after touch: %v", m.State(p))
		}
	}
	if g.ResidentBytes() != 200*pageSize {
		t.Fatalf("resident after round trip = %d", g.ResidentBytes())
	}
	if z.Stats().StoredPages != 0 {
		t.Fatalf("zswap still holds pages after round trip")
	}
}
