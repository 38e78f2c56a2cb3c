package place

import (
	"strings"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

const pageSize = 4096

type harness struct {
	mgr  *mm.Manager
	node *backend.CXLNode
	h    *cgroup.Hierarchy
	g    *cgroup.Group
	ctrl *Controller
}

func newHarness(t testing.TB, capacityPages, farPages int64, interleave float64) *harness {
	t.Helper()
	spec := backend.SpecCXLNode
	spec.CapacityBytes = farPages * pageSize
	node := backend.NewCXLNode(spec)
	dev, _ := backend.DeviceByModel("C")
	mgr := mm.NewManager(mm.Config{
		CapacityBytes: capacityPages * pageSize,
		Far:           node,
		FS:            backend.NewFilesystem(backend.NewSSDDevice(dev, 7)),
		Policy:        mm.PolicyTMO,
	})
	h := cgroup.NewHierarchy(mgr, 0)
	g := h.NewGroup(nil, "app", cgroup.Workload, 0)
	ctrl := New(mgr, node, interleave)
	ctrl.AddTarget(g)
	return &harness{mgr: mgr, node: node, h: h, g: g, ctrl: ctrl}
}

// demote allocates n anon pages in the group and reclaims them onto the far
// node, returning the far subset.
func (hn *harness) demote(t *testing.T, n int) []mm.PageID {
	t.Helper()
	pages := hn.mgr.NewPages(hn.g.MM(), mm.Anon, n, 1)
	for i, p := range pages {
		hn.mgr.Touch(vclock.Time(i), p)
	}
	now := vclock.Time(vclock.Minute)
	hn.mgr.ProactiveReclaim(now, hn.g.MM(), int64(n/2)*pageSize)
	hn.mgr.ProactiveReclaim(now.Add(vclock.Second), hn.g.MM(), int64(n/2)*pageSize)
	var far []mm.PageID
	for _, p := range pages {
		if hn.mgr.Far(p) {
			far = append(far, p)
		}
	}
	if len(far) == 0 {
		t.Fatal("setup demoted nothing")
	}
	return far
}

// tickAt drives the controller through its startup snapshot and then one
// acting tick per element of offsets (vclock offsets from base).
func (hn *harness) tickAt(base vclock.Time, offsets ...vclock.Duration) {
	hn.ctrl.Tick(base)
	for _, off := range offsets {
		hn.ctrl.Tick(base.Add(off))
	}
}

func TestPromotionLifecycle(t *testing.T) {
	hn := newHarness(t, 64, 64, 0)
	far := hn.demote(t, 16)
	hot := far[0]

	base := vclock.Time(2 * vclock.Minute)
	for i := 0; i < 3; i++ {
		hn.mgr.Touch(base.Add(vclock.Duration(i)), hot)
	}
	// Tick 1 snapshots, tick 2 samples and submits the copy, tick 3
	// completes it.
	hn.tickAt(base, vclock.Second, 2*vclock.Second)

	st := hn.ctrl.Stats()
	if st.Promotions != 1 {
		t.Fatalf("promotions = %d, want 1 (aborts %d)", st.Promotions, st.Aborts())
	}
	if hn.mgr.Far(hot) {
		t.Fatal("hot page still far after promotion")
	}
	if st.AbortStall != 0 {
		t.Fatalf("abort stall = %v, must be zero", st.AbortStall)
	}
	if len(hn.ctrl.inflight) != 0 {
		t.Fatalf("inflight = %d after completion", len(hn.ctrl.inflight))
	}
}

func TestPromotionAbortsOnChurn(t *testing.T) {
	hn := newHarness(t, 64, 64, 0)
	far := hn.demote(t, 16)
	hot := far[0]

	base := vclock.Time(2 * vclock.Minute)
	for i := 0; i < 3; i++ {
		hn.mgr.Touch(base.Add(vclock.Duration(i)), hot)
	}
	hn.tickAt(base, vclock.Second) // copy submitted
	if len(hn.ctrl.inflight) != 1 {
		t.Fatalf("inflight = %d, want 1", len(hn.ctrl.inflight))
	}
	// The page is freed (workload restart) while the copy is in flight.
	hn.mgr.FreePages([]mm.PageID{hot})
	usedBefore := hn.node.UsedBytes()
	residentBefore := hn.g.MM().ResidentBytes()

	hn.ctrl.Tick(base.Add(2 * vclock.Second))
	st := hn.ctrl.Stats()
	if st.AbortsChurn != 1 || st.Promotions != 0 {
		t.Fatalf("stats = %+v, want one churn abort", st)
	}
	if hn.node.UsedBytes() != usedBefore || hn.g.MM().ResidentBytes() != residentBefore {
		t.Fatal("churn abort changed accounting")
	}
	if st.AbortStall != 0 {
		t.Fatal("churn abort charged stall")
	}
}

// TestStaleCopyAbortsAfterChurn: a page freed while its promotion copy is in
// flight, then refaulted and demoted far again before the copy completes,
// is back on the far tier — but the copy holds its previous life's content,
// so it must abort as churn rather than commit.
func TestStaleCopyAbortsAfterChurn(t *testing.T) {
	hn := newHarness(t, 64, 64, 0)
	far := hn.demote(t, 16)
	hot := far[0]

	base := vclock.Time(2 * vclock.Minute)
	for i := 0; i < 3; i++ {
		hn.mgr.Touch(base.Add(vclock.Duration(i)), hot)
	}
	hn.tickAt(base, vclock.Second) // copy submitted at base+1s
	if len(hn.ctrl.inflight) != 1 {
		t.Fatalf("inflight = %d, want 1", len(hn.ctrl.inflight))
	}
	// Free, refault and demote the page again within the copy window.
	hn.mgr.FreePages([]mm.PageID{hot})
	now := base.Add(vclock.Second + vclock.Millisecond)
	hn.mgr.Touch(now, hot)
	for i := 0; i < 4 && !hn.mgr.Far(hot); i++ {
		hn.mgr.ProactiveReclaim(now, hn.g.MM(), hn.g.MM().ResidentBytes())
	}
	if hn.mgr.State(hot) != mm.Resident || !hn.mgr.Far(hot) {
		t.Fatalf("setup: page is %v far=%v, want far again", hn.mgr.State(hot), hn.mgr.Far(hot))
	}
	farBefore := hn.g.MM().FarPages()

	hn.ctrl.Tick(base.Add(2 * vclock.Second))
	st := hn.ctrl.Stats()
	if st.AbortsChurn != 1 || st.Promotions != 0 {
		t.Fatalf("stats = %+v, want the stale copy aborted as churn", st)
	}
	if !hn.mgr.Far(hot) || hn.g.MM().FarPages() != farBefore {
		t.Fatal("stale copy moved the page")
	}
}

func TestPromotionAbortsOnLinkStall(t *testing.T) {
	hn := newHarness(t, 64, 64, 0)
	far := hn.demote(t, 16)
	hot := far[0]

	base := vclock.Time(2 * vclock.Minute)
	for i := 0; i < 3; i++ {
		hn.mgr.Touch(base.Add(vclock.Duration(i)), hot)
	}
	hn.tickAt(base, vclock.Second) // copy submitted at base+1s
	// The link stalls over the copy window.
	hn.node.InjectLinkStall(base.Add(vclock.Second), 10*vclock.Second)

	hn.ctrl.Tick(base.Add(2 * vclock.Second))
	st := hn.ctrl.Stats()
	if st.AbortsStall != 1 || st.Promotions != 0 {
		t.Fatalf("stats = %+v, want one link-stall abort", st)
	}
	if !hn.mgr.Far(hot) || hn.mgr.Migrating(hot) {
		t.Fatal("aborted page left inconsistent")
	}
	if st.AbortStall != 0 {
		t.Fatal("link-stall abort charged stall")
	}
}

func TestPromotionAbortsOnLocalPressure(t *testing.T) {
	hn := newHarness(t, 64, 64, 0)
	far := hn.demote(t, 16)
	hot := far[0]

	base := vclock.Time(2 * vclock.Minute)
	for i := 0; i < 3; i++ {
		hn.mgr.Touch(base.Add(vclock.Duration(i)), hot)
	}
	// Refill some local memory, then clamp the group's limit at current
	// usage so the commit has no headroom.
	local := hn.mgr.NewPages(hn.g.MM(), mm.Anon, 4, 1)
	for i, p := range local {
		hn.mgr.Touch(base.Add(vclock.Duration(10+i)), p)
	}
	hn.g.SetMemoryMax(base.Add(20), hn.g.MemoryCurrent())
	// Fill the far node so the watermark demoter cannot open limit
	// headroom by exchanging cold pages out: the commit then finds no
	// room under memory.max and must abort.
	if free := hn.node.FreeBytes(); free > 0 {
		hn.node.TryReserve(free)
	}

	hn.tickAt(base.Add(vclock.Minute), vclock.Second, 2*vclock.Second)
	st := hn.ctrl.Stats()
	if st.AbortsPressure == 0 || st.Promotions != 0 {
		t.Fatalf("stats = %+v, want pressure aborts only", st)
	}
	if !hn.mgr.Far(hot) {
		t.Fatal("page promoted into a full group")
	}
}

func TestClampHeadroomExchange(t *testing.T) {
	// Same setup as the pressure-abort test but with room on the far node:
	// a group pinned at memory.max would abort every promotion, so the
	// watermark demoter watches limit headroom, exchanges cold pages to
	// the far node, and the hot page's promotion commits through the gap.
	hn := newHarness(t, 64, 64, 0)
	far := hn.demote(t, 16)
	hot := far[0]

	base := vclock.Time(2 * vclock.Minute)
	for i := 0; i < 3; i++ {
		hn.mgr.Touch(base.Add(vclock.Duration(i)), hot)
	}
	local := hn.mgr.NewPages(hn.g.MM(), mm.Anon, 4, 1)
	for i, p := range local {
		hn.mgr.Touch(base.Add(vclock.Duration(10+i)), p)
	}
	hn.g.SetMemoryMax(base.Add(20), hn.g.MemoryCurrent())

	hn.tickAt(base.Add(vclock.Minute), vclock.Second, 2*vclock.Second)
	st := hn.ctrl.Stats()
	if st.Promotions != 1 || st.DemotedBytes == 0 {
		t.Fatalf("stats = %+v, want demotion-opened headroom and a committed promotion", st)
	}
	if hn.mgr.Far(hot) {
		t.Fatal("hot page still far after the headroom exchange")
	}
}

func TestStaticInterleaveDisablesMigration(t *testing.T) {
	hn := newHarness(t, 256, 256, 0.5)
	pages := hn.mgr.NewPages(hn.g.MM(), mm.Anon, 40, 1)
	for i, p := range pages {
		hn.mgr.Touch(vclock.Time(i), p)
	}
	if got := hn.g.MM().FarPages(); got != 20 {
		t.Fatalf("interleave placed %d of 40 far, want 20", got)
	}
	// Hammer a far page; the baseline must not promote it.
	var hot mm.PageID
	for _, p := range pages {
		if hn.mgr.Far(p) {
			hot = p
			break
		}
	}
	base := vclock.Time(vclock.Minute)
	for i := 0; i < 10; i++ {
		hn.mgr.Touch(base.Add(vclock.Duration(i)), hot)
	}
	hn.tickAt(base, vclock.Second, 2*vclock.Second, 3*vclock.Second)
	if st := hn.ctrl.Stats(); st.Promotions != 0 || st.DemotedBytes != 0 {
		t.Fatalf("static interleave migrated: %+v", st)
	}
	if !hn.mgr.Far(hot) {
		t.Fatal("static interleave moved a page")
	}
}

func TestWatermarkDemotion(t *testing.T) {
	hn := newHarness(t, 64, 64, 0)
	// Fill local memory close to capacity so free drops under the
	// watermark.
	pages := hn.mgr.NewPages(hn.g.MM(), mm.Anon, 61, 1)
	for i, p := range pages {
		hn.mgr.Touch(vclock.Time(i), p)
	}
	base := vclock.Time(vclock.Minute)
	hn.tickAt(base, vclock.Second, 2*vclock.Second, 3*vclock.Second)
	st := hn.ctrl.Stats()
	if st.DemotedBytes == 0 {
		t.Fatal("watermark demoter moved nothing below the watermark")
	}
	if hn.node.UsedBytes() != st.DemotedBytes {
		t.Fatalf("node occupancy %d != demoted %d", hn.node.UsedBytes(), st.DemotedBytes)
	}
}

func TestTelemetryRegisters(t *testing.T) {
	hn := newHarness(t, 64, 64, 0)
	reg := telemetry.NewRegistry()
	hn.ctrl.EnableTelemetry(reg)
	far := hn.demote(t, 16)
	hot := far[0]
	base := vclock.Time(2 * vclock.Minute)
	for i := 0; i < 3; i++ {
		hn.mgr.Touch(base.Add(vclock.Duration(i)), hot)
	}
	hn.tickAt(base, vclock.Second, 2*vclock.Second)
	if hn.ctrl.Stats().Promotions == 0 {
		t.Fatal("no promotion to observe")
	}
	var buf strings.Builder
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	dump := buf.String()
	for _, want := range []string{"place_promotions 1", "place_far_resident_bytes", "place_demotions"} {
		if !strings.Contains(dump, want) {
			t.Fatalf("telemetry missing %s:\n%s", want, dump)
		}
	}
}

// The first window starts at the controller's first tick: stall time the
// container carried before then does not hold back watermark demotion.
func TestFirstWindowExcludesEarlierStalls(t *testing.T) {
	hn := newHarness(t, 64, 64, 0)
	pages := hn.mgr.NewPages(hn.g.MM(), mm.Anon, 61, 1)
	for i, p := range pages {
		hn.mgr.Touch(vclock.Time(i), p)
	}
	hn.g.TaskStart(0)
	hn.g.StallStart(0, psi.Memory)
	base := vclock.Time(vclock.Minute)
	hn.g.StallStop(base, psi.Memory)
	hn.tickAt(base, vclock.Second)
	if hn.ctrl.Stats().DemotedBytes == 0 {
		t.Fatal("stalls before the first tick held back demotion")
	}
}
