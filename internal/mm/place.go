package mm

import "tmo/internal/vclock"

// This file is the memory manager's half of the transparent page placement
// subsystem (internal/place drives it): demotion of cold local pages to the
// byte-addressable far node, access-bit sampling over far pages, and
// Nomad-style non-exclusive promotion back to local DRAM. The placement
// tier holds anonymous memory only; file cache is always local (its cheap
// eviction/reload path makes a far tier pointless for it).

// finishDemote completes a demotion whose far reservation already
// succeeded: p must be Resident, local, and off its LRU list. The copy over
// the link is synchronous in reclaim context, so its cost lands on the
// run's StallTime.
func (m *Manager) finishDemote(now vclock.Time, g *Group, p *Page, res *ReclaimResult) {
	p.active = false
	p.referenced = false
	p.far = true
	p.farHits = 0
	p.pendingUntil, p.pendingIO = 0, false
	g.farList.pushHead(p)
	g.farPages++
	g.residentPages[Anon]--
	g.charge(-m.cfg.PageSize)
	m.farDemotions++
	res.DemotedPages++
	res.StallTime += m.cfg.Far.MigrateCost(now, m.cfg.PageSize)
}

// SampleFar performs one deterministic access-bit scan over up to budget of
// g's far pages: each scanned page rotates from the list tail to the head
// (round-robin coverage across windows), its referenced bit and touch count
// are read and cleared, and pages whose count reached threshold are
// appended to out as promotion candidates. Pages with a promotion copy
// already in flight are skipped. Returns the candidates and how many pages
// were scanned.
func (m *Manager) SampleFar(g *Group, budget int, threshold uint8, out []*Page) (cands []*Page, sampled int) {
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
	// relinking every scanned page.
	var first *Page
	for p := l.tail; sampled < budget; p = p.prev {
		first = p
		sampled++
		if p.referenced {
			p.referenced = false
			l.refs--
		}
		hot := p.farHits >= threshold
		p.farHits = 0
		if hot && !p.migrating {
			cands = append(cands, p)
		}
	}
	l.rotateTail(first)
	return cands, sampled
}

// BeginPromotion marks p as having a non-exclusive promotion copy in flight
// (Nomad-style: the page stays mapped far and fully accessible while the
// copy runs). Returns false if p is not a far resident page or a copy is
// already in flight.
func (m *Manager) BeginPromotion(p *Page) bool {
	if p.state != Resident || !p.far || p.migrating {
		return false
	}
	p.migrating = true
	return true
}

// AbortPromotion drops an in-flight promotion copy. Because the copy was
// non-exclusive the page never left the far node: no state moved, no
// accounting changes, no stall is charged to anyone — an aborted promotion
// costs nothing.
func (m *Manager) AbortPromotion(p *Page) { p.migrating = false }

// PromoteFromFar commits an in-flight promotion: the page moves from the
// far node to the head of its group's local active list (it earned the
// migration by being hot). Returns false — aborting at zero cost — when the
// page left the far tier while the copy was in flight, or when charging one
// local page would push any group in the ancestry over its limit
// (local-memory pressure; promotion must never trigger reclaim).
func (m *Manager) PromoteFromFar(now vclock.Time, p *Page) bool {
	if p.state != Resident || !p.far {
		p.migrating = false
		return false
	}
	g := p.group
	if g.overLimitAncestor(m.cfg.PageSize) != nil {
		p.migrating = false
		return false
	}
	g.farList.remove(p)
	p.far = false
	p.migrating = false
	p.farHits = 0
	p.referenced = false
	p.active = true
	g.lists[Anon][1].pushHead(p)
	g.residentPages[Anon]++
	g.farPages--
	g.charge(m.cfg.PageSize)
	m.cfg.Far.Release(m.cfg.PageSize)
	m.farPromotions++
	g.stat.Promotions++
	return true
}

// DemoteCold is the placement loop's watermark demoter: it scans g's
// inactive anon tail and moves up to want bytes of unreferenced pages to
// the far node, keeping local allocation headroom without engaging swap.
// Referenced pages get the same second chance reclaim gives them. Unlike
// reclaim-context demotion the copies run from a background loop, so no
// stall is charged. Returns the bytes moved.
func (m *Manager) DemoteCold(now vclock.Time, g *Group, want int64) int64 {
	if m.cfg.Far == nil || want <= 0 {
		return 0
	}
	target := (want + m.cfg.PageSize - 1) / m.cfg.PageSize
	scanLimit := target*maxScanFactor + int64(g.lists[Anon][0].refs+g.lists[Anon][1].refs) + scanBatch
	var res ReclaimResult
	var moved, scanned int64
	inactive := &g.lists[Anon][0]
	active := &g.lists[Anon][1]
	for moved < target && scanned < scanLimit {
		if g.inactiveLow(Anon) {
			for i := 0; i < scanBatch && active.tail != nil; i++ {
				p := active.tail
				active.remove(p)
				p.active = false
				p.referenced = false
				inactive.pushHead(p)
			}
		}
		p := inactive.tail
		if p == nil {
			if active.count == 0 {
				break
			}
			continue
		}
		scanned++
		if p.referenced {
			inactive.remove(p)
			p.referenced = false
			p.active = true
			active.pushHead(p)
			continue
		}
		if !m.cfg.Far.TryReserve(m.cfg.PageSize) {
			break
		}
		inactive.remove(p)
		m.finishDemote(now, g, p, &res)
		moved++
	}
	g.stat.PagesScanned += scanned
	g.stat.Demotions += res.DemotedPages
	if m.tel != nil && scanned > 0 {
		m.tel.pagesScanned.Add(scanned)
	}
	return moved * m.cfg.PageSize
}
