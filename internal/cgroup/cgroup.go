// Package cgroup implements the container hierarchy that TMO operates on:
// cgroup2-style groups with memory control files, per-group PSI trackers,
// and the workload/sidecar distinction behind the paper's memory-tax
// analysis (§2.3).
//
// Every group owns a PSI tracker; task state changes and stalls are
// propagated from the group where they happen to all ancestors, so pressure
// can be read per container, per service tree, and machine-wide, exactly as
// the kernel reports it.
package cgroup

import (
	"fmt"
	"strings"

	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/vclock"
)

// Kind classifies what a container is for. The paper's first deployment
// targeted the datacenter and microservice memory taxes, whose SLAs are more
// relaxed than workload containers' (§2.3, §5.1).
type Kind int

// Container kinds.
const (
	// System is the root and other infrastructure groups.
	System Kind = iota
	// Workload is an application container.
	Workload
	// DatacenterTax holds fleet-management functions: logging, profiling,
	// software deployment, service discovery.
	DatacenterTax
	// MicroserviceTax holds sidecars that exist because of microservice
	// disaggregation: routing and proxy layers.
	MicroserviceTax
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case System:
		return "system"
	case Workload:
		return "workload"
	case DatacenterTax:
		return "datacenter-tax"
	case MicroserviceTax:
		return "microservice-tax"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Group is one cgroup: a name, a memory-control-group, a PSI domain, and a
// position in the hierarchy.
type Group struct {
	name   string
	kind   Kind
	parent *Group
	child  []*Group

	mmg *mm.Group
	psi *psi.Tracker

	h *Hierarchy
}

// Hierarchy is the cgroup tree of one host.
type Hierarchy struct {
	mgr  *mm.Manager
	root *Group
}

// NewHierarchy builds a tree over the given memory manager, starting PSI
// accounting at instant start.
func NewHierarchy(mgr *mm.Manager, start vclock.Time) *Hierarchy {
	h := &Hierarchy{mgr: mgr}
	h.root = &Group{
		name: "/",
		kind: System,
		mmg:  mgr.Root(),
		psi:  psi.NewTracker(start),
		h:    h,
	}
	return h
}

// Manager returns the underlying memory manager.
func (h *Hierarchy) Manager() *mm.Manager { return h.mgr }

// Root returns the root group.
func (h *Hierarchy) Root() *Group { return h.root }

// NewGroup creates a child group under parent (root if nil).
func (h *Hierarchy) NewGroup(parent *Group, name string, kind Kind, start vclock.Time) *Group {
	if parent == nil {
		parent = h.root
	}
	if parent.h != h {
		panic("cgroup: parent belongs to a different hierarchy")
	}
	g := &Group{
		name:   name,
		kind:   kind,
		parent: parent,
		mmg:    h.mgr.NewGroup(name, parent.mmg),
		psi:    psi.NewTracker(start),
		h:      h,
	}
	parent.child = append(parent.child, g)
	return g
}

// Walk visits g and all descendants depth-first.
func (g *Group) Walk(fn func(*Group)) {
	fn(g)
	for _, c := range g.child {
		c.Walk(fn)
	}
}

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// Kind returns the group's container kind.
func (g *Group) Kind() Kind { return g.kind }

// Path returns the group's absolute cgroupfs-style path.
func (g *Group) Path() string {
	if g.parent == nil {
		return "/"
	}
	parts := []string{}
	for a := g; a.parent != nil; a = a.parent {
		parts = append([]string{a.name}, parts...)
	}
	return "/" + strings.Join(parts, "/")
}

// MM returns the group's memory control group.
func (g *Group) MM() *mm.Group { return g.mmg }

// PSI returns the group's pressure tracker.
func (g *Group) PSI() *psi.Tracker { return g.psi }

// TaskStart registers a task becoming non-idle in this group, propagating
// to all ancestors so machine-wide pressure stays consistent.
func (g *Group) TaskStart(now vclock.Time) {
	for a := g; a != nil; a = a.parent {
		a.psi.TaskStart(now)
	}
}

// TaskStop registers a task going idle.
func (g *Group) TaskStop(now vclock.Time) {
	for a := g; a != nil; a = a.parent {
		a.psi.TaskStop(now)
	}
}

// StallStart registers one task starting to stall on r, in this group and
// all ancestors.
func (g *Group) StallStart(now vclock.Time, r psi.Resource) {
	for a := g; a != nil; a = a.parent {
		a.psi.StallStart(now, r)
	}
}

// StallStop registers the end of a task's stall on r.
func (g *Group) StallStop(now vclock.Time, r psi.Resource) {
	for a := g; a != nil; a = a.parent {
		a.psi.StallStop(now, r)
	}
}

// UpdateAverages refreshes the PSI running averages of the whole subtree.
func (g *Group) UpdateAverages(now vclock.Time) {
	g.Walk(func(x *Group) { x.psi.UpdateAverages(now) })
}

// MemoryCurrent returns the group's memory.current: hierarchical resident
// bytes.
func (g *Group) MemoryCurrent() int64 { return g.mmg.HierResidentBytes() }

// SetMemoryMax writes the group's memory.max, synchronously reclaiming any
// excess like the kernel does.
func (g *Group) SetMemoryMax(now vclock.Time, limit int64) mm.ReclaimResult {
	return g.h.mgr.SetLimit(now, g.mmg, limit)
}

// MemoryReclaim writes the group's memory.reclaim file: proactive, stateless
// reclaim of the given byte count (§3.3).
func (g *Group) MemoryReclaim(now vclock.Time, bytes int64) mm.ReclaimResult {
	return g.h.mgr.ProactiveReclaim(now, g.mmg, bytes)
}
