package mm

import "tmo/internal/vclock"

// This file is the memory manager's half of the transparent page placement
// subsystem (internal/place drives it): demotion of cold local pages to the
// byte-addressable far node, access-bit sampling over far pages, and
// Nomad-style non-exclusive promotion back to local DRAM. The placement
// tier holds anonymous memory only; file cache is always local (its cheap
// eviction/reload path makes a far tier pointless for it).

// finishDemote completes a demotion whose far reservation already
// succeeded: page id must be Resident, local, and off its LRU list. The
// copy over the link is synchronous in reclaim context, so its cost lands
// on the run's StallTime.
func (m *Manager) finishDemote(now vclock.Time, g *Group, id PageID, res *ReclaimResult) {
	m.flags[id] &^= flagActive | flagReferenced
	m.clearPending(id)
	m.placeFar(g, id)
	g.residentPages[Anon]--
	g.charge(-PageSize)
	m.farDemotions++
	res.DemotedPages++
	res.StallTime += m.cfg.Far.MigrateCost(now, PageSize)
}

// SampleFar performs one deterministic access-bit scan over up to budget of
// g's far pages: each scanned page rotates from the list tail to the head
// (round-robin coverage across windows), its referenced bit and touch count
// are read and cleared, and pages whose count reached threshold are
// appended to out as promotion candidates. Pages with a promotion copy
// already in flight are skipped. Returns the candidates and how many pages
// were scanned.
func (m *Manager) SampleFar(g *Group, budget int, threshold uint8, out []PageID) (cands []PageID, sampled int) {
	cands = out
	l := &g.farList
	if budget > l.count {
		budget = l.count
	}
	if budget <= 0 {
		return cands, 0
	}
	// Scan the budget's tail segment tail first, then move it to the head
	// in one splice: the order per-page rotation would leave, without
	// relinking every scanned page. A page's flag and touch count are
	// written only when they change.
	links, flags, hits := m.links, m.flags, m.farHits
	first := l.tail
	refs := 0
	for id, i := first, 0; i < budget; id, i = links[id].prev, i+1 {
		first = id
		if f := flags[id]; f&flagReferenced != 0 {
			flags[id] = f &^ flagReferenced
			refs++
		}
		if h := hits[id]; h != 0 {
			hits[id] = 0
			if h >= threshold && !m.page(id).migrating {
				cands = append(cands, id)
			}
		}
	}
	l.refs -= refs
	m.rotateTail(l, first)
	return cands, budget
}

// BeginPromotion marks page id as having a non-exclusive promotion copy in
// flight (Nomad-style: the page stays mapped far and fully accessible while
// the copy runs). Returns false if the page is not a far resident page or a
// copy is already in flight.
func (m *Manager) BeginPromotion(id PageID) bool {
	p := m.page(id)
	if m.flags[id]&(flagState|flagFar) != flagResident|flagFar || p.migrating {
		return false
	}
	p.migrating = true
	return true
}

// AbortPromotion drops an in-flight promotion copy. Because the copy was
// non-exclusive the page never left the far node: no state moved, no
// accounting changes, no stall is charged to anyone — an aborted promotion
// costs nothing.
func (m *Manager) AbortPromotion(id PageID) { m.page(id).migrating = false }

// PromoteFromFar commits an in-flight promotion: the page moves from the
// far node to the head of its group's local active list (it earned the
// migration by being hot). Returns false — aborting at zero cost — when the
// copy is no longer in flight, or when charging one local page would push
// any group in the ancestry over its limit (local-memory pressure;
// promotion must never trigger reclaim). A copy in flight implies a far
// resident page: BeginPromotion requires one, and freeing the page, the
// only other way off the far tier, ends the copy — so a page freed
// mid-copy, even if since refaulted and demoted far again, never commits
// its previous life's content.
func (m *Manager) PromoteFromFar(now vclock.Time, id PageID) bool {
	p := m.page(id)
	if !p.migrating {
		return false
	}
	g := m.Group(id)
	if g.overLimitAncestor(PageSize) != nil {
		p.migrating = false
		return false
	}
	m.leaveFar(g, id)
	m.flags[id] = m.flags[id]&^flagReferenced | flagActive
	m.pushHead(&g.lists[Anon][1], id)
	g.residentPages[Anon]++
	g.charge(PageSize)
	m.farPromotions++
	g.stat.Promotions++
	return true
}

// DemoteCold is the placement loop's watermark demoter: it scans g's
// inactive anon tail and moves up to want bytes of unreferenced pages to
// the far node, keeping local allocation headroom without engaging swap.
// Referenced pages get the same second chance reclaim gives them; a victim
// stays at the tail when the node is full. Unlike reclaim-context demotion
// the copies run from a background loop, so no stall is charged. Returns
// the bytes moved.
func (m *Manager) DemoteCold(now vclock.Time, g *Group, want int64) int64 {
	if m.cfg.Far == nil || want <= 0 {
		return 0
	}
	target := (want + PageSize - 1) / PageSize
	inactive, active := &g.lists[Anon][0], &g.lists[Anon][1]
	scanLimit := target*maxScanFactor + int64(inactive.refs+active.refs) + scanBatch
	var res ReclaimResult
	for res.DemotedPages < target && res.ScannedPages < scanLimit && inactive.count+active.count > 0 {
		res.ScannedPages++
		id := m.scanTail(g, Anon)
		if id == 0 {
			continue
		}
		if !m.cfg.Far.TryReserve(PageSize) {
			break
		}
		m.remove(inactive, id)
		m.finishDemote(now, g, id, &res)
	}
	g.noteShrink(res, 0)
	return res.DemotedPages * PageSize
}

// placeFar puts Resident page id of g, off every list and with its other
// flags final, on g's far list. The far frame must already be reserved.
func (m *Manager) placeFar(g *Group, id PageID) {
	m.flags[id] |= flagFar
	m.farHits[id] = 0
	m.pushHead(&g.farList, id)
	g.farPages++
}

// leaveFar takes far page id off g's far list and releases its frame,
// ending any promotion copy in flight. The page keeps its other flags.
func (m *Manager) leaveFar(g *Group, id PageID) {
	m.remove(&g.farList, id)
	m.flags[id] &^= flagFar
	m.page(id).migrating = false
	m.farHits[id] = 0
	g.farPages--
	m.cfg.Far.Release(PageSize)
}
