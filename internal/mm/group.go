package mm

import (
	"fmt"
	"math"

	"tmo/internal/vclock"
)

// Group is the memory-management side of one control group: the owner of a
// set of pages, two LRU pairs, refault-detection state, and the paging-cost
// counters that TMO's balanced reclaim uses. The cgroup package wraps Group
// with the control-file interface and PSI trackers.
type Group struct {
	name string
	mgr  *Manager
	// idx is the group's index in mgr.groups, which its pages' owners
	// carry.
	idx uint16

	parent   *Group
	children []*Group

	// lists[type][0] is the inactive list, lists[type][1] the active list.
	lists [numPageTypes][2]lruList

	// residentPages counts this group's own resident pages by type.
	residentPages [numPageTypes]int64

	// farList holds the group's anonymous pages placed on the far-memory
	// node, most recently scanned (or demoted) first; the placement loop's
	// access-bit sampler walks it tail-to-head. Far pages are Resident but
	// consume no local DRAM, so they are excluded from residentPages and
	// hierResidentBytes — limits and savings see only local memory.
	farList lruList

	// farPages counts this group's pages on the far node.
	farPages int64

	// hierResidentBytes is resident bytes of this group plus descendants;
	// limits are enforced against it.
	hierResidentBytes int64

	// limitBytes is the group's memory.max; 0 means unlimited.
	limitBytes int64

	// lowBytes is the group's memory.low protection: while the group's
	// usage is at or below it, reclaim driven from ancestors skips the
	// group as long as unprotected memory remains elsewhere. TMO deploys
	// this to shield latency-critical containers while the taxes are
	// squeezed.
	lowBytes int64

	// Non-resident (shadow) tracking for refault detection: evictions
	// counts file evictions; each evicted page's shadow records the
	// counter at eviction time.
	evictions uint64

	// Paging-cost accounting for reclaim balancing (the kernel's
	// lru_note_cost): refaults charge the file cost, swap-ins charge the
	// anonymous cost. Costs decay exponentially so the balance follows
	// recent behaviour.
	anonCost, fileCost float64
	lastCostDecay      vclock.Time

	// scanAcc accumulates fractional anon-scan credit so the cost balance
	// is honoured deterministically without randomness.
	scanAcc float64

	// swappedPages counts this group's pages currently held by the swap
	// backend.
	swappedPages int64

	// Cumulative event counters for stats and experiment panels.
	stat GroupStat
}

// SwappedPages returns how many of the group's pages are currently
// offloaded to the swap backend.
func (g *Group) SwappedPages() int64 { return g.swappedPages }

// FarPages returns how many of the group's pages live on the far node.
func (g *Group) FarPages() int64 { return g.farPages }

// SwappedBytes returns the group's current offloaded bytes (uncompressed).
func (g *Group) SwappedBytes() int64 { return g.swappedPages * PageSize }

// GroupStat holds a group's cumulative memory-management event counters.
type GroupStat struct {
	// Refaults counts file faults classified as working-set refaults.
	Refaults int64
	// ColdFileReads counts file faults that were not refaults (first
	// access or out-of-window reuse).
	ColdFileReads int64
	// SwapIns counts anonymous pages brought back from the swap backend;
	// the rate of these is the "promotion rate" metric of §4.3.
	SwapIns int64
	// SwapOuts counts anonymous pages offloaded.
	SwapOuts int64
	// FileEvictions counts file pages dropped from cache.
	FileEvictions int64
	// FileWritebacks counts dirty file pages written to storage before
	// eviction.
	FileWritebacks int64
	// PagesScanned counts LRU pages examined by reclaim.
	PagesScanned int64
	// Demotions counts anonymous pages moved to the far-memory node (by
	// reclaim ahead of swap, or by the placement loop's watermark demoter).
	Demotions int64
	// Promotions counts far pages migrated back to local DRAM.
	Promotions int64
	// DirectReclaims counts charge-triggered (memory.max) reclaim runs.
	DirectReclaims int64
	// OOMEvents counts charges by this group that exceeded a limit even
	// after reclaim — where a real kernel would have invoked the OOM
	// killer (surfaced in memory.events).
	OOMEvents int64
}

// costHalfLife controls how quickly reclaim balancing forgets old paging
// cost. The kernel halves its cost counters as scan volume accumulates; a
// time-based half-life has the same effect under steady scanning and is
// simpler to reason about in virtual time.
const costHalfLife = 60 * vclock.Second

// Name returns the group's name.
func (g *Group) Name() string { return g.name }

// Stat returns the group's cumulative counters.
func (g *Group) Stat() GroupStat { return g.stat }

// Limit returns the group's memory.max in bytes (0 = unlimited).
func (g *Group) Limit() int64 { return g.limitBytes }

// Low returns the group's memory.low protection in bytes (0 = none).
func (g *Group) Low() int64 { return g.lowBytes }

// SetLow sets the group's memory.low protection.
func (g *Group) SetLow(bytes int64) {
	if bytes < 0 {
		bytes = 0
	}
	g.lowBytes = bytes
}

// reclaimWeight returns the group's reclaim weight for one proportional
// shrink pass rooted at root. While memory.low protections are honoured,
// protected memory is invisible; the reclaim root's own protection never
// applies to itself (low guards against *external* pressure, like the
// kernel's).
func (g *Group) reclaimWeight(root *Group, honourLow bool) int64 {
	if honourLow && g != root {
		return g.protectedReclaimable()
	}
	return g.ResidentBytes()
}

// protectedReclaimable returns how much of the group's own resident memory
// is above its protection, i.e. available to ancestor-driven reclaim while
// protections are honoured.
func (g *Group) protectedReclaimable() int64 {
	over := g.ResidentBytes() - g.lowBytes
	if over < 0 {
		return 0
	}
	return over
}

// ResidentBytes returns the group's own resident bytes (excluding
// descendants).
func (g *Group) ResidentBytes() int64 {
	return (g.residentPages[Anon] + g.residentPages[File]) * PageSize
}

// ResidentBytesOf returns the group's own resident bytes of one page type.
func (g *Group) ResidentBytesOf(t PageType) int64 {
	return g.residentPages[t] * PageSize
}

// HierResidentBytes returns resident bytes of the group and all descendants
// — the value memory.current reports.
func (g *Group) HierResidentBytes() int64 { return g.hierResidentBytes }

// decayCosts applies exponential decay to the paging-cost counters.
func (g *Group) decayCosts(now vclock.Time) {
	dt := now.Sub(g.lastCostDecay)
	if dt <= 0 {
		return
	}
	f := math.Exp2(-float64(dt) / float64(costHalfLife))
	g.anonCost *= f
	g.fileCost *= f
	g.lastCostDecay = now
}

// noteCost charges one unit of paging cost to the LRU of type t, mirroring
// the kernel's lru_note_cost: refaults charge File, swap-ins charge Anon.
func (g *Group) noteCost(now vclock.Time, t PageType) {
	g.decayCosts(now)
	if t == Anon {
		g.anonCost++
	} else {
		g.fileCost++
	}
}

// Costs returns the decayed (anon, file) paging costs as of now.
func (g *Group) Costs(now vclock.Time) (anon, file float64) {
	g.decayCosts(now)
	return g.anonCost, g.fileCost
}

// charge adjusts resident accounting for this group and all ancestors.
func (g *Group) charge(bytes int64) {
	for a := g; a != nil; a = a.parent {
		a.hierResidentBytes += bytes
		if a.hierResidentBytes < 0 {
			panic(fmt.Sprintf("mm: group %q hierarchical usage went negative", a.name))
		}
	}
}

// overLimitAncestor returns the closest group in the ancestry (including g)
// whose usage would exceed its limit after adding extra bytes, or nil.
func (g *Group) overLimitAncestor(extra int64) *Group {
	var worst *Group
	for a := g; a != nil; a = a.parent {
		limit := a.limitBytes
		if a == g.mgr.root {
			limit = g.mgr.cfg.CapacityBytes
		}
		if limit > 0 && a.usageForLimit()+extra > limit {
			worst = a
		}
	}
	return worst
}

// usageForLimit is the value compared against the group's limit. For the
// root (the host) it includes the swap backend's DRAM pool, because a zswap
// pool competes with applications for physical memory.
func (g *Group) usageForLimit() int64 {
	u := g.hierResidentBytes
	if g == g.mgr.root && g.mgr.cfg.Swap != nil {
		u += g.mgr.cfg.Swap.PoolBytes()
	}
	return u
}

// inactiveLowWatermark decides when reclaim should refill the inactive list
// from the active list's tail. The kernel maintains an
// active:inactive ratio; we refill whenever the inactive list holds less
// than half of the LRU for that type.
func (g *Group) inactiveLow(t PageType) bool {
	inactive := g.lists[t][0].count
	active := g.lists[t][1].count
	return inactive < active
}
