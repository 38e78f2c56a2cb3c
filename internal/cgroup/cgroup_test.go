package cgroup

import (
	"strings"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/vclock"
)

const pageSize = 4096

func newHierarchy() *Hierarchy {
	spec, _ := backend.DeviceByModel("C")
	fs := backend.NewFilesystem(backend.NewSSDDevice(spec, 1))
	mgr := mm.NewManager(mm.Config{
		CapacityBytes: 4096 * pageSize,
		FS:            fs,
		Policy:        mm.PolicyTMO,
	})
	return NewHierarchy(mgr, 0)
}

func TestHierarchyConstruction(t *testing.T) {
	h := newHierarchy()
	if h.Root().Name() != "/" || h.Root().Path() != "/" {
		t.Fatalf("root naming wrong")
	}
	w := h.NewGroup(nil, "workload", Workload, 0)
	app := h.NewGroup(w, "web", Workload, 0)
	side := h.NewGroup(w, "proxy", MicroserviceTax, 0)
	if app.Path() != "/workload/web" {
		t.Fatalf("path = %q", app.Path())
	}
	if side.parent != w || len(w.child) != 2 {
		t.Fatalf("tree structure wrong")
	}
	var names []string
	h.Root().Walk(func(g *Group) { names = append(names, g.Name()) })
	if len(names) != 4 {
		t.Fatalf("walk visited %d groups, want 4", len(names))
	}
}

func TestKindClassification(t *testing.T) {
	for k, want := range map[Kind]string{
		System: "system", Workload: "workload",
		DatacenterTax: "datacenter-tax", MicroserviceTax: "microservice-tax",
	} {
		if k.String() != want {
			t.Fatalf("kind %d name %q", k, k.String())
		}
	}
}

func TestPSIPropagatesToAncestors(t *testing.T) {
	h := newHierarchy()
	w := h.NewGroup(nil, "workload", Workload, 0)
	app := h.NewGroup(w, "web", Workload, 0)

	app.TaskStart(0)
	app.StallStart(vclock.Time(vclock.Second), psi.Memory)
	app.StallStop(vclock.Time(3*vclock.Second), psi.Memory)
	app.TaskStop(vclock.Time(4 * vclock.Second))

	for _, g := range []*Group{app, w, h.Root()} {
		g.PSI().Sync(vclock.Time(4 * vclock.Second))
		if got := g.PSI().Total(psi.Memory, psi.Some); got != 2*vclock.Second {
			t.Fatalf("%s some = %v, want 2s", g.Path(), got)
		}
		if got := g.PSI().Total(psi.Memory, psi.Full); got != 2*vclock.Second {
			t.Fatalf("%s full = %v, want 2s", g.Path(), got)
		}
	}
}

func TestSiblingStallsIsolated(t *testing.T) {
	h := newHierarchy()
	a := h.NewGroup(nil, "a", Workload, 0)
	b := h.NewGroup(nil, "b", Workload, 0)
	a.TaskStart(0)
	b.TaskStart(0)
	a.StallStart(0, psi.IO)
	a.StallStop(vclock.Time(vclock.Second), psi.IO)
	a.PSI().Sync(vclock.Time(2 * vclock.Second))
	b.PSI().Sync(vclock.Time(2 * vclock.Second))
	if b.PSI().Total(psi.IO, psi.Some) != 0 {
		t.Fatalf("sibling b accrued a's stall")
	}
	// At the root, only one of two tasks stalled: some but not full.
	root := h.Root().PSI()
	root.Sync(vclock.Time(2 * vclock.Second))
	if root.Total(psi.IO, psi.Some) != vclock.Second {
		t.Fatalf("root some = %v", root.Total(psi.IO, psi.Some))
	}
	if root.Total(psi.IO, psi.Full) != 0 {
		t.Fatalf("root full = %v, want 0 (b was running)", root.Total(psi.IO, psi.Full))
	}
}

func TestMemoryControlFiles(t *testing.T) {
	h := newHierarchy()
	g := h.NewGroup(nil, "app", Workload, 0)
	pages := h.Manager().NewPages(g.MM(), mm.File, 10, 1)
	for _, p := range pages {
		h.Manager().Touch(0, p)
	}

	cur, err := g.ReadControl("memory.current")
	if err != nil || strings.TrimSpace(cur) != "40960" {
		t.Fatalf("memory.current = %q, %v", cur, err)
	}
	if mx, _ := g.ReadControl("memory.max"); strings.TrimSpace(mx) != "max" {
		t.Fatalf("unset memory.max = %q", mx)
	}
	g.SetMemoryMax(0, 32768)
	if g.MemoryCurrent() > 32768 {
		t.Fatalf("memory.max write did not reclaim: %d", g.MemoryCurrent())
	}
	if mx, _ := g.ReadControl("memory.max"); strings.TrimSpace(mx) != "32768" {
		t.Fatalf("memory.max = %q", mx)
	}
	g.SetMemoryMax(0, 0)
	if mx, _ := g.ReadControl("memory.max"); strings.TrimSpace(mx) != "max" {
		t.Fatalf("memory.max after reset = %q", mx)
	}
}

func TestMemoryReclaimControlFile(t *testing.T) {
	h := newHierarchy()
	g := h.NewGroup(nil, "app", Workload, 0)
	pages := h.Manager().NewPages(g.MM(), mm.File, 10, 1)
	for _, p := range pages {
		h.Manager().Touch(0, p)
	}
	before := g.MemoryCurrent()
	g.MemoryReclaim(vclock.Time(vclock.Second), 16384)
	if got := before - g.MemoryCurrent(); got != 16384 {
		t.Fatalf("memory.reclaim freed %d, want 16384", got)
	}
	// memory.reclaim must be stateless: no limit got set.
	if g.MM().Limit() != 0 {
		t.Fatalf("memory.reclaim set a limit")
	}
}

func TestPressureControlFiles(t *testing.T) {
	h := newHierarchy()
	g := h.NewGroup(nil, "app", Workload, 0)
	g.TaskStart(0)
	g.StallStart(0, psi.Memory)
	g.StallStop(vclock.Time(vclock.Second), psi.Memory)
	g.UpdateAverages(vclock.Time(2 * vclock.Second))
	out, err := g.ReadControl("memory.pressure")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "some avg10=") || !strings.Contains(out, "total=1000000") {
		t.Fatalf("memory.pressure = %q", out)
	}
	for _, f := range []string{"io.pressure", "cpu.pressure"} {
		if _, err := g.ReadControl(f); err != nil {
			t.Fatalf("%s: %v", f, err)
		}
	}
}

func TestMemoryStatFile(t *testing.T) {
	h := newHierarchy()
	g := h.NewGroup(nil, "app", Workload, 0)
	pages := h.Manager().NewPages(g.MM(), mm.Anon, 5, 1)
	for _, p := range pages {
		h.Manager().Touch(0, p)
	}
	out, err := g.ReadControl("memory.stat")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "anon 20480") {
		t.Fatalf("memory.stat = %q", out)
	}
}

func TestMemoryEventsControlFile(t *testing.T) {
	h := newHierarchy()
	g := h.NewGroup(nil, "app", Workload, 0)
	// Pin the group to one page's worth of memory, then allocate anon
	// with nothing reclaimable: OOM events must surface.
	g.SetMemoryMax(0, 4096)
	pages := h.Manager().NewPages(g.MM(), mm.Anon, 3, 1)
	for _, p := range pages {
		h.Manager().Touch(0, p)
	}
	out, err := g.ReadControl("memory.events")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "oom ") || strings.Contains(out, "oom 0\n") {
		t.Fatalf("memory.events = %q, want oom > 0", out)
	}
	if !strings.Contains(out, "direct_reclaim ") {
		t.Fatalf("memory.events missing direct_reclaim: %q", out)
	}
}

func TestMemoryLowControlFile(t *testing.T) {
	h := newHierarchy()
	g := h.NewGroup(nil, "app", Workload, 0)
	if v, err := g.ReadControl("memory.low"); err != nil || strings.TrimSpace(v) != "0" {
		t.Fatalf("default memory.low = %q, %v", v, err)
	}
	g.MM().SetLow(65536)
	if g.MM().Low() != 65536 {
		t.Fatalf("memory.low not applied: %d", g.MM().Low())
	}
}

func TestControlFileErrors(t *testing.T) {
	h := newHierarchy()
	g := h.NewGroup(nil, "app", Workload, 0)
	if _, err := g.ReadControl("cpu.max"); err == nil {
		t.Fatalf("unknown read did not fail")
	}
}
