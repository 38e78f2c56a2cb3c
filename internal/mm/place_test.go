package mm

import (
	"testing"

	"tmo/internal/backend"
	"tmo/internal/vclock"
)

func newTestCXLNode(capacityPages int64) *backend.CXLNode {
	spec := backend.SpecCXLNode
	spec.CapacityBytes = capacityPages * pageSize
	return backend.NewCXLNode(spec)
}

func newFarManager(capacityPages, farPages int64, swap *backend.TierChain) (*Manager, *backend.CXLNode) {
	node := newTestCXLNode(farPages)
	m := NewManager(Config{
		CapacityBytes: capacityPages * pageSize,
		Swap:          swap,
		Far:           node,
		FS:            newTestFS(99),
		Policy:        PolicyTMO,
	})
	return m, node
}

// demoteSome fills g with n anon pages and reclaims enough, twice (second
// chance), to push some of them to the far node. Returns all pages and the
// far subset.
func demoteSome(t *testing.T, m *Manager, g *Group, n int) (pages, far []PageID) {
	t.Helper()
	pages = m.NewPages(g, Anon, n, 1)
	for i, p := range pages {
		m.Touch(vclock.Time(i), p)
	}
	now := vclock.Time(vclock.Minute)
	m.ProactiveReclaim(now, g, int64(n/2)*pageSize)
	m.ProactiveReclaim(now.Add(vclock.Second), g, int64(n/2)*pageSize)
	for _, p := range pages {
		if m.Far(p) {
			far = append(far, p)
		}
	}
	if len(far) == 0 {
		t.Fatal("reclaim demoted nothing to the far node")
	}
	return pages, far
}

func TestReclaimDemotesBeforeSwap(t *testing.T) {
	swap := newSSDSwap()
	m, node := newFarManager(64, 64, swap)
	g := m.NewGroup("app", nil)
	pages, far := demoteSome(t, m, g, 32)

	if swap.Stats().StoredPages != 0 {
		t.Fatalf("swap engaged while the far node had %d bytes free", node.FreeBytes())
	}
	if node.UsedBytes() != int64(len(far))*pageSize {
		t.Fatalf("node occupancy %d != %d far pages", node.UsedBytes(), len(far))
	}
	// Far pages stay Resident (no fault on access) but leave local
	// accounting: they are the savings.
	for _, p := range far {
		if m.State(p) != Resident {
			t.Fatalf("far page state = %v", m.State(p))
		}
	}
	if g.farPages*pageSize != int64(len(far))*pageSize {
		t.Fatalf("far resident bytes = %d", g.farPages*pageSize)
	}
	if g.HierResidentBytes() != g.ResidentBytes() {
		t.Fatal("hierarchical and local accounting disagree")
	}
	if g.Stat().Demotions != int64(len(far)) {
		t.Fatalf("Demotions stat = %d, want %d", g.Stat().Demotions, len(far))
	}
	checkAccounting(t, m, []*Group{g}, pages)
}

func TestReclaimFallsBackToSwapWhenFarFull(t *testing.T) {
	swap := newSSDSwap()
	m, node := newFarManager(64, 4, swap)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 48, 1)
	for i, p := range pages {
		m.Touch(vclock.Time(i), p)
	}
	now := vclock.Time(vclock.Minute)
	m.ProactiveReclaim(now, g, 24*pageSize)
	m.ProactiveReclaim(now.Add(vclock.Second), g, 24*pageSize)
	if node.FreeBytes() != 0 {
		t.Fatalf("far node not filled: %d free", node.FreeBytes())
	}
	if swap.Stats().StoredPages == 0 {
		t.Fatal("swap did not take the overflow")
	}
}

func TestFarTouchIsResidentAtLinkLatency(t *testing.T) {
	m, node := newFarManager(64, 64, nil)
	g := m.NewGroup("app", nil)
	_, far := demoteSome(t, m, g, 16)
	p := far[0]

	now := vclock.Time(2 * vclock.Minute)
	res := m.Touch(now, p)
	if res.Fault {
		t.Fatal("far access must not fault")
	}
	if !res.MemStall || res.IOStall {
		t.Fatalf("far touch signature = %+v", res)
	}
	if want := node.AccessDelay(now); res.Latency != want {
		t.Fatalf("far latency %v != link latency %v", res.Latency, want)
	}
	if m.State(p) != Resident || !m.Far(p) {
		t.Fatal("far touch moved the page")
	}
	degraded := node.AccessDelay(now)
	node.SetLinkDegradation(4)
	res = m.Touch(now.Add(vclock.Second), p)
	if res.Latency != 4*degraded {
		t.Fatalf("degraded link latency %v, want %v", res.Latency, 4*degraded)
	}
}

func TestSampleFarFindsHotPages(t *testing.T) {
	m, _ := newFarManager(64, 64, nil)
	g := m.NewGroup("app", nil)
	pages, far := demoteSome(t, m, g, 16)

	// Touch the first far page past the threshold, the second once.
	now := vclock.Time(3 * vclock.Minute)
	for i := 0; i < 3; i++ {
		m.Touch(now.Add(vclock.Duration(i)), far[0])
	}
	m.Touch(now, far[1])

	cands, sampled := m.SampleFar(g, 1000, 2, nil)
	if sampled != len(far) {
		t.Fatalf("sampled %d of %d far pages", sampled, len(far))
	}
	if len(cands) != 1 || cands[0] != far[0] {
		t.Fatalf("candidates = %d pages, want exactly the hot one", len(cands))
	}
	// The scan cleared the counters: a second scan finds nothing.
	cands, _ = m.SampleFar(g, 1000, 2, nil)
	if len(cands) != 0 {
		t.Fatal("sample did not clear access counters")
	}
	checkAccounting(t, m, []*Group{g}, pages)
}

func TestPromoteFromFarCommit(t *testing.T) {
	m, node := newFarManager(64, 64, nil)
	g := m.NewGroup("app", nil)
	pages, far := demoteSome(t, m, g, 16)
	p := far[0]

	usedBefore := node.UsedBytes()
	residentBefore := g.ResidentBytes()
	if !m.BeginPromotion(p) {
		t.Fatal("BeginPromotion refused a far resident page")
	}
	if m.BeginPromotion(p) {
		t.Fatal("double BeginPromotion allowed")
	}
	now := vclock.Time(4 * vclock.Minute)
	if !m.PromoteFromFar(now, p) {
		t.Fatal("promotion aborted without cause")
	}
	if m.Far(p) || m.Migrating(p) || m.flags[p]&flagActive == 0 {
		t.Fatal("promoted page not on the local active list")
	}
	if node.UsedBytes() != usedBefore-pageSize {
		t.Fatal("promotion did not release far occupancy")
	}
	if g.ResidentBytes() != residentBefore+pageSize {
		t.Fatal("promotion did not charge local memory")
	}
	if m.farPromotions != 1 || g.Stat().Promotions != 1 {
		t.Fatal("promotion not counted")
	}
	checkAccounting(t, m, []*Group{g}, pages)
}

func TestAbortPromotionCostsNothing(t *testing.T) {
	m, node := newFarManager(64, 64, nil)
	g := m.NewGroup("app", nil)
	_, far := demoteSome(t, m, g, 16)
	p := far[0]

	usedBefore := node.UsedBytes()
	residentBefore := g.ResidentBytes()
	farBefore := g.FarPages()
	if !m.BeginPromotion(p) {
		t.Fatal("BeginPromotion refused")
	}
	m.AbortPromotion(p)
	if m.Migrating(p) || !m.Far(p) || m.State(p) != Resident {
		t.Fatal("abort changed page state")
	}
	if node.UsedBytes() != usedBefore || g.ResidentBytes() != residentBefore || g.FarPages() != farBefore {
		t.Fatal("abort changed accounting — a non-exclusive copy must cost nothing")
	}
	if m.farPromotions != 0 {
		t.Fatal("abort counted as a promotion")
	}
}

func TestPromoteAbortsUnderLocalPressure(t *testing.T) {
	m, node := newFarManager(64, 64, nil)
	g := m.NewGroup("app", nil)
	pages, far := demoteSome(t, m, g, 16)
	p := far[0]

	// Repopulate some local pages, then clamp the group to its current
	// usage: one more local page would overshoot, so the promotion must
	// abort rather than trigger reclaim.
	local := m.NewPages(g, Anon, 4, 1)
	for i, lp := range local {
		m.Touch(vclock.Time(3*vclock.Minute).Add(vclock.Duration(i)), lp)
	}
	g.limitBytes = g.usageForLimit()
	if g.limitBytes <= 0 {
		t.Fatal("test needs nonzero local usage")
	}
	usedBefore := node.UsedBytes()
	m.BeginPromotion(p)
	if m.PromoteFromFar(vclock.Time(4*vclock.Minute), p) {
		t.Fatal("promotion committed into a full group")
	}
	if !m.Far(p) || m.Migrating(p) {
		t.Fatal("aborted promotion left page inconsistent")
	}
	if node.UsedBytes() != usedBefore {
		t.Fatal("aborted promotion changed far occupancy")
	}
	checkAccounting(t, m, []*Group{g}, append(pages, local...))
}

func TestDemoteColdWatermark(t *testing.T) {
	m, node := newFarManager(64, 64, nil)
	g := m.NewGroup("app", nil)
	pages := m.NewPages(g, Anon, 24, 1)
	for i, p := range pages {
		m.Touch(vclock.Time(i), p)
	}
	// The second-chance pass may absorb part of the first call's budget;
	// two calls together must hit the full target.
	now := vclock.Time(vclock.Minute)
	moved := m.DemoteCold(now, g, 8*pageSize)
	moved += m.DemoteCold(now.Add(vclock.Second), g, 8*pageSize)
	if moved < 8*pageSize {
		t.Fatalf("DemoteCold moved %d bytes, want at least 8 pages", moved)
	}
	if node.UsedBytes() != moved {
		t.Fatalf("node occupancy %d != moved %d", node.UsedBytes(), moved)
	}
	if g.FarPages() != moved/pageSize {
		t.Fatalf("FarPages = %d", g.FarPages())
	}
	checkAccounting(t, m, []*Group{g}, pages)
}

func TestFreeFarPagesReleasesNode(t *testing.T) {
	m, node := newFarManager(64, 64, nil)
	g := m.NewGroup("app", nil)
	_, far := demoteSome(t, m, g, 16)
	m.FreePages(far)
	if node.UsedBytes() != 0 {
		t.Fatalf("freeing far pages left %d bytes on the node", node.UsedBytes())
	}
	if g.FarPages() != 0 {
		t.Fatalf("FarPages = %d after free", g.FarPages())
	}
	for _, p := range far {
		if m.Far(p) || m.State(p) == Resident {
			t.Fatal("freed far page still marked resident/far")
		}
	}
	checkAccounting(t, m, []*Group{g}, far)
}

// TestPromoteFromFarRefusesStaleCopy: freeing a page ends its in-flight
// copy, so the copy must not commit even after the page refaults and is
// demoted far again before the commit.
func TestPromoteFromFarRefusesStaleCopy(t *testing.T) {
	m, _ := newFarManager(64, 64, nil)
	g := m.NewGroup("app", nil)
	pages, far := demoteSome(t, m, g, 16)
	p := far[0]
	if !m.BeginPromotion(p) {
		t.Fatal("BeginPromotion refused a far resident page")
	}
	m.FreePages(far[:1])
	now := vclock.Time(3 * vclock.Minute)
	m.Touch(now, p)
	for i := 0; i < 4 && !m.Far(p); i++ {
		m.ProactiveReclaim(now, g, g.ResidentBytes())
	}
	if !m.Far(p) {
		t.Fatal("setup: page not demoted far again")
	}
	if m.PromoteFromFar(now, p) {
		t.Fatal("a copy of the freed page's old content committed")
	}
	if !m.Far(p) || m.farPromotions != 0 {
		t.Fatal("refused commit moved the page")
	}
	checkAccounting(t, m, []*Group{g}, pages)
}

func TestFarInterleavePlacesFraction(t *testing.T) {
	m, node := newFarManager(256, 256, nil)
	g := m.NewGroup("app", nil)
	m.SetFarInterleave(0.25)
	pages := m.NewPages(g, Anon, 100, 1)
	for i, p := range pages {
		m.Touch(vclock.Time(i), p)
	}
	if got := g.FarPages(); got != 25 {
		t.Fatalf("interleave placed %d of 100 pages far, want 25", got)
	}
	if node.UsedBytes() != 25*pageSize {
		t.Fatalf("node occupancy %d", node.UsedBytes())
	}
	checkAccounting(t, m, []*Group{g}, pages)
}
