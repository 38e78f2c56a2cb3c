// Package mm implements the simulated kernel memory-management substrate:
// pages, per-cgroup active/inactive LRU lists, shadow-entry refault
// detection, and the reclaim algorithm in both its historical (file-skewed)
// and TMO (cost-balanced) forms (§3.4 of the paper).
//
// The package deliberately mirrors the Linux structures the paper modifies:
//
//   - Each memory control group keeps two LRU pairs — active/inactive for
//     anonymous memory and for file cache — with second-chance scanning
//     driven by per-page referenced bits.
//   - When a file page is evicted, a shadow entry records the group's
//     eviction counter; a later fault computes the reuse distance and
//     classifies the fault as a refault of working-set memory if the
//     distance is smaller than the group's resident set.
//   - TMO-mode reclaim takes file cache exclusively while refaults are
//     absent, then balances file and anonymous scanning by the relative
//     paging cost observed (refault rate vs swap-in rate), so swap engages
//     exactly when the file working set starts getting hurt.
//
// Pages are PageIDs: indices into one arena per Manager. What a resident
// hit reads — a flag byte and the last-touch time — sits in dense arrays of
// its own, LRU lists link IDs rather than pointers, and the rest of a page
// lives in a pointer-free cold record, so no page structure holds a Go
// pointer (DESIGN.md, "Page arena").
//
// Faults return the stall the faulting task must serve; the simulation layer
// converts those into PSI stall intervals.
package mm

import "tmo/internal/vclock"

// PageType distinguishes the two memory categories of §2.4.
type PageType uint8

// The two page types.
const (
	Anon PageType = iota
	File
	numPageTypes
)

// PageState describes where a page's content currently lives.
type PageState uint8

// Page lifecycle states.
const (
	// NotPresent: the page has been created but never populated (a file
	// page not yet read, or anon not yet faulted in). First touch
	// populates it.
	NotPresent PageState = iota
	// Resident: in DRAM, on one of the group's LRU lists.
	Resident
	// Offloaded: an anonymous page stored in the swap backend.
	Offloaded
	// EvictedFile: a file page dropped from cache; a shadow entry may
	// remember its eviction for refault detection. Reload goes to the
	// filesystem.
	EvictedFile
)

// PageID names one page of a Manager's arena. For file pages the page
// stands for a (file, offset) position and persists across evictions; for
// anonymous pages it stands for a virtual page of some process. IDs are
// handed out by NewPages and never reused; 0 is no page, so a zero lruList
// or swapCluster is empty.
type PageID int32

// pageFlags is the per-page state a resident hit tests and LRU moves
// update, one byte per page.
type pageFlags uint8

const (
	// flagState holds the PageState in the low two bits.
	flagState pageFlags = 3
	// flagFar marks a Resident anonymous page whose frame lives on the
	// byte-addressable far-memory node rather than local DRAM: it is on the
	// group's far list, costs no local capacity, and every touch pays the
	// link latency in place of a fault.
	flagFar pageFlags = 1 << 2
	// flagActive marks a page on (or bound for) the active list.
	flagActive pageFlags = 1 << 3
	// flagReferenced is the referenced bit of second-chance reclaim.
	flagReferenced pageFlags = 1 << 4
	// flagTouched marks a page accessed since it was created or freed.
	flagTouched pageFlags = 1 << 5
	// flagPending marks that the cold record's pendingUntil is set.
	flagPending pageFlags = 1 << 6
	// flagOnList marks a page linked into the list its other flags and
	// owner name (listOf).
	flagOnList pageFlags = 1 << 7

	// flagResident is flagState's value for a Resident page.
	flagResident = pageFlags(Resident)
)

// pageOwner packs a page's group index and type as group<<1 | type.
type pageOwner uint16

// maxGroups bounds a manager's groups so an index fits a pageOwner.
const maxGroups = 1 << 15

// pageLink is a page's LRU neighbours.
type pageLink struct{ next, prev PageID }

// Cold records are allocated in chunks of chunkPages consecutive pages, so
// the bulk of the arena grows without copying: appending to one flat slice
// of them would leave every outgrown copy behind as garbage while a host
// builds its pages.
const (
	chunkShift = 12
	chunkPages = 1 << chunkShift
	chunkMask  = chunkPages - 1
)

// coldChunk holds the cold records of chunkPages consecutive pages.
type coldChunk [chunkPages]Page

// page returns page id's cold record.
func (m *Manager) page(id PageID) *Page {
	return &m.cold[id>>chunkShift][id&chunkMask]
}

// Page is a page's cold record: everything its resident hits and LRU moves
// never read. Faults, offload, refault detection and placement use it.
// Like every arena element it holds no pointers, so the garbage collector
// never scans it; TestPageLayout pins that.
type Page struct {
	// pendingUntil, when set (flagPending), is the completion time of the
	// batched load that is bringing this page in: readahead inserts cluster
	// neighbours as Resident the moment the batch is submitted, and a touch
	// before the batch lands is a coalesced fault that waits out the
	// remainder instead of issuing a duplicate load. pendingIO records
	// whether that batch performed block IO, for pressure classification.
	pendingUntil vclock.Time

	// compressibility is the page content's intrinsic compression ratio
	// (uncompressed/compressed) used when the page is offloaded to zswap.
	compressibility float64

	// handle locates the page in the swap backend while Offloaded.
	handle uint64
	// shadow is the group eviction counter recorded when this file page
	// was evicted; valid while hasShadow is set.
	shadow uint64

	// cluster groups pages swapped out together; swap readahead loads
	// cluster neighbours alongside a faulting page, like the kernel's
	// swap readahead over adjacent swap slots. Membership is intrusive:
	// non-zero only while the page is Offloaded and indexed for readahead.
	cluster                  clusterID
	clusterNext, clusterPrev PageID

	pendingIO bool
	// dirty marks a file page whose content has been modified since it
	// was last written back; evicting it costs a device write.
	dirty bool
	// refaulted marks an anon page that demand-faulted back from the swap
	// backend since its last offload. The next offload carries it as
	// StoreReq.Refault so a multi-tier chain can promote the page toward a
	// faster tier; it clears when the offload lands. Readahead neighbours
	// that were never touched do not set it.
	refaulted bool
	// migrating marks a far page with a non-exclusive promotion copy in
	// flight (Nomad-style): the page stays mapped far and fully accessible,
	// so an aborted promotion costs nothing.
	migrating bool
	// hasShadow marks that shadow holds this evicted file page's eviction
	// counter.
	hasShadow bool
}

// State returns where page id currently lives.
func (m *Manager) State(id PageID) PageState { return PageState(m.flags[id] & flagState) }

// Type returns page id's type, fixed at creation.
func (m *Manager) Type(id PageID) PageType { return PageType(m.owners[id] & 1) }

// Group returns the memory control group that owns page id.
func (m *Manager) Group(id PageID) *Group { return m.groups[m.owners[id]>>1] }

// Far reports whether page id's frame lives on the far-memory node.
func (m *Manager) Far(id PageID) bool { return m.flags[id]&flagFar != 0 }

// Migrating reports whether a non-exclusive promotion copy of page id is in
// flight.
func (m *Manager) Migrating(id PageID) bool { return m.page(id).migrating }

// SetCompressibility sets the content compression ratio of every page in
// ids; pages currently held in a compressed pool keep their stored size
// until they cycle through it.
func (m *Manager) SetCompressibility(ids []PageID, ratio float64) {
	for _, id := range ids {
		m.page(id).compressibility = ratio
	}
}

// setState replaces page id's PageState, keeping its other flags.
func (m *Manager) setState(id PageID, s PageState) {
	m.flags[id] = m.flags[id]&^flagState | pageFlags(s)
}

// setPending stamps the completion time and IO class of the batched load
// bringing page id in. A zero time means none.
func (m *Manager) setPending(id PageID, until vclock.Time, io bool) {
	if until == 0 {
		m.clearPending(id)
		return
	}
	m.flags[id] |= flagPending
	p := m.page(id)
	p.pendingUntil, p.pendingIO = until, io
}

// clearPending forgets page id's batched load, if any, touching its cold
// record only then.
func (m *Manager) clearPending(id PageID) {
	if m.flags[id]&flagPending != 0 {
		m.flags[id] &^= flagPending
		p := m.page(id)
		p.pendingUntil, p.pendingIO = 0, false
	}
}

// listOf returns the list page id's flags name: its group's far list if the
// page is far, else its group's active or inactive list of its type.
func (m *Manager) listOf(id PageID) *lruList {
	o, f := m.owners[id], m.flags[id]
	g := m.groups[o>>1]
	if f&flagFar != 0 {
		return &g.farList
	}
	return &g.lists[o&1][(f&flagActive)>>3]
}

// clusterID names one swap cluster in Manager.clusters; 0 is none.
type clusterID int32

// swapCluster indexes the still-offloaded pages of one swap cluster as an
// intrusive doubly-linked list threaded through the pages' cold records
// (clusterNext/clusterPrev), so joining and leaving a cluster are O(1)
// updates with no map or slice bookkeeping on the fault path. The list is
// kept in swap-out order: head is the first page stored into the cluster,
// matching the adjacent-slot order the kernel's readahead walks.
type swapCluster struct {
	head, tail PageID
	// n counts live members; when it reaches zero the manager recycles
	// the cluster through its free list.
	n int32
}

// clusterPushTail appends page id to cluster c in swap-out order.
func (m *Manager) clusterPushTail(c clusterID, id PageID) {
	cl := &m.clusters[c]
	p := m.page(id)
	p.cluster = c
	p.clusterNext = 0
	p.clusterPrev = cl.tail
	if cl.tail != 0 {
		m.page(cl.tail).clusterNext = id
	} else {
		cl.head = id
	}
	cl.tail = id
	cl.n++
}

// clusterRemove unlinks page id from its cluster.
func (m *Manager) clusterRemove(id PageID) {
	p := m.page(id)
	cl := &m.clusters[p.cluster]
	if p.clusterPrev != 0 {
		m.page(p.clusterPrev).clusterNext = p.clusterNext
	} else {
		cl.head = p.clusterNext
	}
	if p.clusterNext != 0 {
		m.page(p.clusterNext).clusterPrev = p.clusterPrev
	} else {
		cl.tail = p.clusterPrev
	}
	p.cluster, p.clusterNext, p.clusterPrev = 0, 0, 0
	cl.n--
}

// lruList is an intrusive doubly-linked page list threaded through the
// arena's links. The head is the most recently added end; reclaim scans
// from the tail. The list tracks how many of its pages carry the referenced
// bit so reclaim can size its scan budget to the work actually needed to
// clear second chances. Which list a page is on is not stored: it is
// derived from the page's owner and flags (listOf), plus flagOnList.
type lruList struct {
	head, tail PageID
	count      int
	refs       int
}

// pushHead inserts page id at the head (MRU position) of l, which must be
// the list its flags name.
func (m *Manager) pushHead(l *lruList, id PageID) {
	f := m.flags[id]
	if f&flagOnList != 0 {
		panic("mm: page already on a list")
	}
	m.flags[id] = f | flagOnList
	m.links[id] = pageLink{next: l.head}
	if l.head != 0 {
		m.links[l.head].prev = id
	}
	l.head = id
	if l.tail == 0 {
		l.tail = id
	}
	l.count++
	if f&flagReferenced != 0 {
		l.refs++
	}
}

// remove unlinks page id from l.
func (m *Manager) remove(l *lruList, id PageID) {
	f := m.flags[id]
	if f&flagOnList == 0 || m.listOf(id) != l {
		panic("mm: removing page from wrong list")
	}
	lk := m.links[id]
	if lk.prev != 0 {
		m.links[lk.prev].next = lk.next
	} else {
		l.head = lk.next
	}
	if lk.next != 0 {
		m.links[lk.next].prev = lk.prev
	} else {
		l.tail = lk.prev
	}
	m.links[id] = pageLink{}
	m.flags[id] = f &^ flagOnList
	l.count--
	if f&flagReferenced != 0 {
		l.refs--
	}
}

// rotateTail moves the tail segment of l that starts at first to the head,
// keeping the segment's order — the list that moving each of its pages to
// the head, tail first, would leave — in O(1) link updates. first must be
// on l.
func (m *Manager) rotateTail(l *lruList, first PageID) {
	if first == l.head {
		return
	}
	last := l.tail
	l.tail = m.links[first].prev
	m.links[l.tail].next = 0
	m.links[first].prev = 0
	m.links[last].next = l.head
	m.links[l.head].prev = last
	l.head = first
}
