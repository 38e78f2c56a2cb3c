package mm

import (
	"errors"
	"sort"

	"tmo/internal/backend"
	"tmo/internal/vclock"
)

// ReclaimResult reports the outcome of one reclaim run.
type ReclaimResult struct {
	// ReclaimedBytes is the DRAM actually released. For zswap targets the
	// compressed pool grows at the same time, so the *net* host saving is
	// smaller; callers read HostStat for net effects.
	ReclaimedBytes int64
	// ReclaimedAnon/ReclaimedFile break the released pages down by type.
	ReclaimedAnon, ReclaimedFile int64
	// ScannedPages counts LRU pages examined.
	ScannedPages int64
	// StallTime is the synchronous cost of the run: scan CPU plus
	// compression time for pages stored to zswap. For direct reclaim the
	// faulting task serves this as a memory stall; for proactive reclaim
	// it is the controller's own cost.
	StallTime vclock.Duration
	// SwapFull reports that the swap backend refused at least one store.
	SwapFull bool
	// DemotedPages counts anon victims moved to the far-memory node instead
	// of swap; their bytes are included in ReclaimedBytes (local DRAM was
	// freed) but not in ReclaimedAnon (they were not swapped out).
	DemotedPages int64
}

// add merges r2 into r.
func (r *ReclaimResult) add(r2 ReclaimResult) {
	r.ReclaimedBytes += r2.ReclaimedBytes
	r.ReclaimedAnon += r2.ReclaimedAnon
	r.ReclaimedFile += r2.ReclaimedFile
	r.ScannedPages += r2.ScannedPages
	r.StallTime += r2.StallTime
	r.SwapFull = r.SwapFull || r2.SwapFull
	r.DemotedPages += r2.DemotedPages
}

// scanBatch is how many pages move from the active to the inactive list per
// refill step, mirroring the kernel's SWAP_CLUSTER_MAX batching.
const scanBatch = 32

// maxScanFactor bounds scanning per shrink call relative to the reclaim
// target, so a wall of referenced pages cannot loop reclaim forever.
const maxScanFactor = 8

// reclaim frees up to want bytes from root's subtree. Groups are shrunk
// proportionally to their resident size, in up to three passes so that
// groups that came up short are compensated by the others.
func (m *Manager) reclaim(now vclock.Time, root *Group, want int64, direct bool) ReclaimResult {
	var total ReclaimResult
	remaining := want

	// Two phases: honour protections first; if the target was not met
	// from unprotected memory, memory.low degrades to best-effort and the
	// remainder comes from everywhere (kernel behaviour under sustained
	// pressure).
	for _, honourLow := range [2]bool{true, false} {
		for round := 0; round < 3 && remaining > 0; round++ {
			groups := m.subtreeGroups(root)
			var weightSum int64
			for _, g := range groups {
				weightSum += g.reclaimWeight(root, honourLow)
			}
			if weightSum == 0 {
				break
			}
			progressed := false
			for _, g := range groups {
				w := g.reclaimWeight(root, honourLow)
				if w == 0 {
					continue
				}
				share := remaining * w / weightSum
				if share < PageSize {
					share = PageSize
				}
				if honourLow && g != root && share > w {
					share = w
				}
				if share > remaining {
					share = remaining
				}
				if share <= 0 {
					continue
				}
				r := m.shrinkGroup(now, g, share)
				total.add(r)
				remaining -= r.ReclaimedBytes
				if r.ReclaimedBytes > 0 {
					progressed = true
				}
				if remaining <= 0 {
					break
				}
			}
			if !progressed {
				break
			}
		}
		if remaining <= 0 {
			break
		}
	}
	return total
}

// subtreeGroups returns root and all descendants in depth-first order. The
// result aliases the manager's scratch buffer: it is valid until the next
// call and must not be retained. Reclaim runs many times per simulated
// second, so enumerating the (small, stable) group tree must not allocate.
func (m *Manager) subtreeGroups(root *Group) []*Group {
	m.scratchGroups = appendSubtree(m.scratchGroups[:0], root)
	return m.scratchGroups
}

// appendSubtree appends g and its descendants to out depth-first.
func appendSubtree(out []*Group, g *Group) []*Group {
	out = append(out, g)
	for _, c := range g.children {
		out = appendSubtree(out, c)
	}
	return out
}

// shrinkOracle evicts the group's coldest pages by exact last-access time,
// the PolicyOracle comparator. It sees every page's true age — information a
// real kernel does not have — and so bounds what any scanning approximation
// could achieve.
func (m *Manager) shrinkOracle(now vclock.Time, g *Group, want int64) ReclaimResult {
	var res ReclaimResult
	target := (want + PageSize - 1) / PageSize

	// Collect resident pages, coldest first.
	var pages []PageID
	for t := PageType(0); t < numPageTypes; t++ {
		for _, lst := range []*lruList{&g.lists[t][0], &g.lists[t][1]} {
			for id := lst.head; id != 0; id = m.links[id].next {
				pages = append(pages, id)
			}
		}
	}
	m.sortByAge(pages)
	res.ScannedPages = int64(len(pages))

	var reclaimed, writebacks int64
	for _, id := range pages {
		if reclaimed >= target {
			break
		}
		t := m.Type(id)
		if t == Anon && !m.anonScanAllowed() {
			continue
		}
		switch {
		case t == File:
			m.remove(m.listOf(id), id)
			writebacks += m.evictFile(now, g, id)
			res.ReclaimedFile++
		case m.cfg.Far != nil && m.cfg.Far.TryReserve(PageSize):
			m.remove(m.listOf(id), id)
			m.finishDemote(now, g, id, &res)
		case !m.swapScanAllowed():
			continue
		default:
			// The oracle offloads page by page: each store is a one-page
			// batch carrying the page's refault bit. A page the chain
			// refuses stays where it is, on whichever list holds it.
			p := m.page(id)
			oneReq := [1]backend.StoreReq{{
				PageBytes:     PageSize,
				CompressRatio: p.compressibility,
				Refault:       p.refaulted,
			}}
			var oneRes [1]backend.StoreResult
			if _, err := m.cfg.Swap.StoreBatch(now, oneReq[:], oneRes[:]); err != nil {
				m.latchSwapFull(now, g)
				res.SwapFull = true
				continue
			}
			m.remove(m.listOf(id), id)
			m.swappedOut(id, oneRes[0], &res)
		}
		reclaimed++
	}
	res.ReclaimedBytes = reclaimed * PageSize
	res.StallTime += vclock.Duration(res.ScannedPages) * scanCPUPerPage / 8 // a table walk, not a list scan
	g.noteShrink(res, writebacks)
	return res
}

// sortByAge orders pages coldest (oldest last touch) first; pages never
// touched are coldest of all.
func (m *Manager) sortByAge(pages []PageID) {
	sort.SliceStable(pages, func(i, j int) bool {
		pi, pj := pages[i], pages[j]
		ti, tj := m.flags[pi]&flagTouched != 0, m.flags[pj]&flagTouched != 0
		if ti != tj {
			return !ti
		}
		return m.lastTouch[pi] < m.lastTouch[pj]
	})
}

// evictFile drops file page id of g, already off its list, from the cache
// and returns how many writebacks that took (0 or 1). A dirty page is
// written back first; writeback consumes device endurance and IOPS but
// completes asynchronously (flusher threads), so no stall is charged. A
// shadow entry remembers the group's eviction counter for refault
// detection.
func (m *Manager) evictFile(now vclock.Time, g *Group, id PageID) (writebacks int64) {
	p := m.page(id)
	if p.dirty {
		m.cfg.FS.WritePage(now)
		p.dirty = false
		writebacks = 1
	}
	m.flags[id] = m.flags[id]&^(flagState|flagActive) | pageFlags(EvictedFile)
	p.shadow = g.evictions
	p.hasShadow = true
	g.evictions++
	g.residentPages[File]--
	g.charge(-PageSize)
	return writebacks
}

// swappedOut completes the swap-out of anonymous page id, already off its
// list, into the backend slot r names: the page becomes Offloaded, its
// group uncharges it, and its store latency lands on res.
func (m *Manager) swappedOut(id PageID, r backend.StoreResult, res *ReclaimResult) {
	m.flags[id] &^= flagActive
	m.setState(id, Offloaded)
	p := m.page(id)
	p.refaulted = false
	p.handle = uint64(r.Handle)
	g := m.Group(id)
	g.residentPages[Anon]--
	g.charge(-PageSize)
	g.swappedPages++
	m.noteSwapOut(id)
	res.StallTime += r.Latency
	res.ReclaimedAnon++
}

// shrinkGroup runs the per-group LRU scan loop, evicting up to want bytes
// from g's own lists.
func (m *Manager) shrinkGroup(now vclock.Time, g *Group, want int64) ReclaimResult {
	if m.cfg.Policy == PolicyOracle {
		return m.shrinkOracle(now, g, want)
	}
	var res ReclaimResult
	target := (want + PageSize - 1) / PageSize
	// The scan budget covers the reclaim target plus every second chance
	// outstanding: clearing referenced bits is bounded work, so reclaim
	// always makes forward progress even when the whole LRU was recently
	// referenced (the kernel achieves the same through priority
	// escalation).
	refs := int64(0)
	for t := PageType(0); t < numPageTypes; t++ {
		refs += int64(g.lists[t][0].refs + g.lists[t][1].refs)
	}
	scanLimit := target*maxScanFactor + refs + scanBatch
	var reclaimed, writebacks int64

	for reclaimed+int64(m.nStoreVictims) < target && res.ScannedPages < scanLimit {
		// pickScanType names only a type whose lists hold a page, so each
		// scan step looks at exactly one.
		t, ok := m.pickScanType(now, g)
		if !ok {
			break
		}
		res.ScannedPages++
		id := m.scanTail(g, t)
		if id == 0 {
			continue
		}
		inactive := &g.lists[t][0]
		m.remove(inactive, id)
		if t == File {
			writebacks += m.evictFile(now, g, id)
			res.ReclaimedFile++
			reclaimed++
			continue
		}
		// Demotion before swap: a cold anon victim moves to the
		// byte-addressable far node while it has room, so it stays mapped
		// at link latency instead of faulting; the swap tiers engage only
		// once the node is full (the third rung).
		if m.cfg.Far != nil && m.cfg.Far.TryReserve(PageSize) {
			m.finishDemote(now, g, id, &res)
			reclaimed++
			continue
		}
		if !m.swapScanAllowed() {
			// Far node full and no swap rung available: give the page
			// back; pickScanType stops selecting anon now that neither
			// rung has room.
			m.pushHead(inactive, id)
			continue
		}
		// Gather the victim; victims flush as one batched store per swap
		// cluster, so the device sees clustered submissions and the
		// queue/backpressure cost is paid once per batch.
		p := m.page(id)
		m.storeVictims[m.nStoreVictims] = id
		m.storeReqs[m.nStoreVictims] = backend.StoreReq{
			PageBytes:     PageSize,
			CompressRatio: p.compressibility,
			Refault:       p.refaulted,
		}
		m.nStoreVictims++
		if m.nStoreVictims == swapClusterSize {
			reclaimed += m.flushSwapOuts(now, g, &res)
		}
	}
	reclaimed += m.flushSwapOuts(now, g, &res)
	res.ReclaimedBytes = reclaimed * PageSize
	res.StallTime += vclock.Duration(res.ScannedPages) * scanCPUPerPage
	g.noteShrink(res, writebacks)
	return res
}

// scanTail is the scan step reclaim and the placement demoter share; g's t
// lists must hold a page. It refills the inactive list from the active
// tail when the inactive list runs low, then looks at the inactive tail.
// A referenced tail page gets its second chance, kernel-style, and
// scanTail returns 0: an anonymous page is activated, while a file page
// rotates back to the inactive head (the use-once heuristic) and only
// activation through a second access protects it further. An
// unreferenced tail page is the victim: it stays on the list, and the
// caller removes it.
func (m *Manager) scanTail(g *Group, t PageType) PageID {
	inactive, active := &g.lists[t][0], &g.lists[t][1]
	if g.inactiveLow(t) {
		m.deactivate(active, inactive)
	}
	id := inactive.tail
	if m.flags[id]&flagReferenced == 0 {
		return id
	}
	m.remove(inactive, id)
	m.flags[id] &^= flagReferenced
	if t == Anon {
		m.flags[id] |= flagActive
		m.pushHead(active, id)
	} else {
		m.pushHead(inactive, id)
	}
	return 0
}

// deactivate moves up to scanBatch pages from the tail of active to the
// head of inactive, clearing their referenced bits as the kernel's
// deactivation does.
func (m *Manager) deactivate(active, inactive *lruList) {
	for i := 0; i < scanBatch && active.tail != 0; i++ {
		id := active.tail
		m.remove(active, id)
		m.flags[id] &^= flagActive | flagReferenced
		m.pushHead(inactive, id)
	}
}

// flushSwapOuts submits the gathered anon victims as one batched store and
// applies the Offloaded transition to the stored prefix, returning how many
// pages were reclaimed. Any backpressure stall from the writeback queue
// arrives in the batch's first StoreResult and lands on the run's StallTime,
// so a full queue throttles reclaim and feeds PSI. Pages the backend had no
// room for return to the inactive head and the swap-exhausted latch trips,
// stopping further anon scanning until space frees.
func (m *Manager) flushSwapOuts(now vclock.Time, g *Group, res *ReclaimResult) int64 {
	n := m.nStoreVictims
	if n == 0 {
		return 0
	}
	m.nStoreVictims = 0
	stored, err := m.cfg.Swap.StoreBatch(now, m.storeReqs[:n], m.storeRes[:n])
	for i, id := range m.storeVictims[:stored] {
		m.swappedOut(id, m.storeRes[i], res)
	}
	if err != nil {
		if !errors.Is(err, backend.ErrFull) {
			panic("mm: unexpected swap store error: " + err.Error())
		}
		for i := stored; i < n; i++ {
			id := m.storeVictims[i]
			m.pushHead(&m.Group(id).lists[Anon][0], id)
		}
		m.latchSwapFull(now, g)
		res.SwapFull = true
	}
	return int64(stored)
}

// noteShrink folds one shrink run's per-page event counts into the group's
// cumulative counters, once per shrink call rather than once per page.
func (g *Group) noteShrink(res ReclaimResult, writebacks int64) {
	g.stat.PagesScanned += res.ScannedPages
	g.stat.SwapOuts += res.ReclaimedAnon
	g.stat.FileEvictions += res.ReclaimedFile
	g.stat.FileWritebacks += writebacks
	g.stat.Demotions += res.DemotedPages
}

// anonScanAllowed reports whether anonymous reclaim is possible at all:
// either the far node has room for a demotion, or a swap rung can store.
func (m *Manager) anonScanAllowed() bool {
	if m.cfg.Far != nil && m.cfg.Far.FreeBytes() >= PageSize {
		return true
	}
	return m.swapScanAllowed()
}

// swapScanAllowed reports whether the swap rung specifically can take
// stores.
func (m *Manager) swapScanAllowed() bool {
	return m.cfg.Swap != nil && !m.swapExhausted
}

// legacyFileFloorDiv sets the legacy policy's emergency threshold: swap is
// considered only once file cache is below 1/8th of the group's resident
// memory, reproducing the kernel's historical skew toward file reclaim.
const legacyFileFloorDiv = 8

// pickScanType decides which LRU to scan next, implementing the policy
// split at the heart of §3.4.
func (m *Manager) pickScanType(now vclock.Time, g *Group) (PageType, bool) {
	fileAvail := g.lists[File][0].count+g.lists[File][1].count > 0
	anonAvail := m.anonScanAllowed() && g.lists[Anon][0].count+g.lists[Anon][1].count > 0
	if !fileAvail && !anonAvail {
		return File, false
	}
	if !anonAvail {
		return File, true
	}
	if !fileAvail {
		return Anon, true
	}

	switch m.cfg.Policy {
	case PolicyLegacy:
		// Historical behaviour: reclaim file cache until it is nearly
		// exhausted; swap is an emergency overflow.
		total := g.residentPages[Anon] + g.residentPages[File]
		if g.residentPages[File] > total/legacyFileFloorDiv {
			return File, true
		}
		return Anon, true

	default: // PolicyTMO
		anonCost, fileCost := g.Costs(now)
		// No recent refaults: the file working set is not being hurt,
		// keep reclaiming only file cache.
		if fileCost < 0.5 {
			return File, true
		}
		// Balance scan pressure by relative paging cost: the more the
		// file cache refaults, the more anonymous memory is scanned,
		// and vice versa.
		weightAnon := fileCost / (anonCost + fileCost)
		g.scanAcc += weightAnon
		if g.scanAcc >= 1 {
			g.scanAcc--
			return Anon, true
		}
		return File, true
	}
}
