package mm

import (
	"math"
	"slices"

	"tmo/internal/backend"
	"tmo/internal/metrics"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// ReclaimPolicy selects between the historical kernel reclaim behaviour and
// the TMO-modified algorithm of §3.4.
type ReclaimPolicy int

// The reclaim policies.
const (
	// PolicyTMO reclaims file cache exclusively until refaults occur, then
	// balances file and anonymous reclaim by observed paging cost.
	PolicyTMO ReclaimPolicy = iota
	// PolicyLegacy skews heavily toward file cache and uses swap only as
	// an emergency overflow once the file cache is nearly gone.
	PolicyLegacy
	// PolicyOracle evicts the globally coldest pages by exact last-access
	// time — unimplementable in a real kernel (it requires tracking every
	// access), but the upper bound that the LRU approximation is measured
	// against (§5.3 discusses the cost of cold-page detection).
	PolicyOracle
)

// String names the policy.
func (p ReclaimPolicy) String() string {
	switch p {
	case PolicyTMO:
		return "tmo"
	case PolicyLegacy:
		return "legacy"
	case PolicyOracle:
		return "oracle"
	}
	return "invalid"
}

// PageSize is the size of every simulated page in bytes.
const PageSize int64 = 4096

// Config parameterises a Manager.
type Config struct {
	// CapacityBytes is host DRAM size.
	CapacityBytes int64
	// Swap is the offload backend for anonymous pages; nil runs file-only
	// mode (§5.1's first deployment phase).
	Swap *backend.TierChain
	// Far is the byte-addressable far-memory node; when set, reclaim
	// demotes cold anonymous pages to it ahead of swap (the swap tiers
	// become the third rung) and touches of far pages pay the link latency
	// without faulting. Nil disables the placement tier.
	Far *backend.CXLNode
	// FS is the filesystem used to (re)load file pages. Required.
	FS *backend.Filesystem
	// Policy selects the reclaim algorithm.
	Policy ReclaimPolicy
	// SwapReadahead, when positive, loads up to that many cluster
	// neighbours alongside every swap-in, mirroring the kernel's swap
	// readahead over adjacent swap slots (pages evicted together are
	// adjacent). Readahead pages arrive unreferenced on the inactive
	// list, so mistaken readahead is cheap to re-evict. Zero disables.
	SwapReadahead int
}

// Manager simulates the host kernel's memory-management subsystem: a fixed
// DRAM capacity, a tree of memory control groups, and the reclaim machinery.
type Manager struct {
	cfg  Config
	root *Group

	// swapExhausted latches when the swap backend reports ErrFull; anon
	// scanning stops until space frees up.
	swapExhausted bool

	// The page arena, indexed by PageID; ID 0 is the nil page. Its hot
	// arrays take 20 bytes per page: flags and lastTouch are all a resident
	// hit reads or writes, links threads the LRU lists, owners names each
	// page's group and type, and farHits counts touches of a far page since
	// the placement loop's last access-bit scan over it, saturating (the
	// loop promotes pages whose count crosses its threshold). The cold
	// record of page id is cold[id>>chunkShift][id&chunkMask]. No page's
	// state holds a pointer, so the garbage collector scans only the chunk
	// table, never the pages.
	flags     []pageFlags
	lastTouch []vclock.Time
	links     []pageLink
	owners    []pageOwner
	farHits   []uint8
	cold      []*coldChunk
	// reserved is the capacity, in pages, of every hot array.
	reserved int

	// groups indexes every group by its pageOwner index; groups[0] is the
	// root.
	groups []*Group

	// Swap-cluster bookkeeping for readahead: consecutive swap-outs share
	// a cluster (adjacent slots). Each live cluster is an intrusive list
	// threaded through its pages; curCluster receives new swap-outs until
	// curClusterSlots slots have been assigned. Emptied clusters are
	// recycled through freeClusters so steady-state swap traffic performs
	// no cluster allocations. clusters[0] is the nil cluster.
	clusters        []swapCluster
	curCluster      clusterID
	curClusterSlots int
	freeClusters    []clusterID

	// scratchGroups is reclaim's reusable subtree enumeration buffer.
	// Reclaim never nests (shrinking a group cannot trigger another
	// reclaim), so a single buffer per manager is safe.
	scratchGroups []*Group

	// Batched swap-in scratch: the fault path gathers the demand page's
	// handle plus its eligible cluster neighbours here and submits them as
	// one LoadBatch. Reused across faults so the batched path allocates
	// nothing in steady state.
	batchHandles []backend.Handle
	batchPages   []PageID

	// Batched swap-out scratch: reclaim gathers up to a swap cluster of
	// anon victims, then flushes them as one StoreBatch. Fixed arrays keep
	// the reclaim loop allocation-free.
	storeVictims  [swapClusterSize]PageID
	storeReqs     [swapClusterSize]backend.StoreReq
	storeRes      [swapClusterSize]backend.StoreResult
	nStoreVictims int

	// readaheadIn counts pages loaded by readahead rather than faults.
	readaheadIn int64

	// farDemotions/farPromotions count placement-tier migrations; the
	// placement loop's telemetry reads them.
	farDemotions  int64
	farPromotions int64

	// farInterleave, when positive, statically places that fraction of
	// newly resident anonymous pages on the far node (deterministic
	// accumulator) — the hardware-interleaving baseline the placement loop
	// is measured against. interleaveAcc carries the fractional credit.
	farInterleave float64
	interleaveAcc float64

	// oomEvents counts charges that proceeded even though reclaim could
	// not make room — situations where a real kernel would OOM-kill.
	oomEvents int64

	// Host-wide event counts no group keeps (GroupStat holds the rest):
	// inactive-to-active promotions, refused swap stores, readahead
	// neighbours skipped for want of headroom, zero-fill faults, and
	// swap-ins that coalesced onto a batch in flight.
	activations, swapRejects, readaheadSkips, zeroFills, faultCoalesced int64

	// faultLatency counts every fault's stall in µs; trace, when set,
	// records the swap-full latch.
	faultLatency metrics.Histogram
	trace        *trace.Recorder
}

// swapClusterSize matches the kernel's default readahead cluster (2^3).
const swapClusterSize = 8

// scanCPUPerPage is the CPU cost of examining one LRU page during reclaim;
// it feeds direct-reclaim stall time. It is 1 µs, the virtual clock's
// resolution: a real page scan costs less, but the clock cannot represent
// a nonzero cost below one tick.
const scanCPUPerPage vclock.Duration = 1

// faultOverhead is the kernel-side cost of taking any major fault (trap
// entry, page allocation, LRU insertion, page-table fixup), paid on top of
// the backend latency.
const faultOverhead vclock.Duration = 20 * vclock.Microsecond

// NewManager returns a Manager for a host with the given configuration.
func NewManager(cfg Config) *Manager {
	if cfg.CapacityBytes <= 0 {
		panic("mm: capacity must be positive")
	}
	if cfg.FS == nil {
		panic("mm: filesystem backend is required")
	}
	m := &Manager{cfg: cfg}
	m.root = &Group{name: "/", mgr: m}
	m.groups = append(make([]*Group, 0, 8), m.root)
	return m
}

// ReadaheadIn returns how many pages swap readahead has brought in.
func (m *Manager) ReadaheadIn() int64 { return m.readaheadIn }

// FarDemotions returns cumulative pages demoted to the far node.
func (m *Manager) FarDemotions() int64 { return m.farDemotions }

// SetFarInterleave statically places frac of newly resident anonymous pages
// on the far node — the interleaving baseline. Zero restores demand-local
// placement.
func (m *Manager) SetFarInterleave(frac float64) {
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	m.farInterleave = frac
}

// noteSwapOut records an offloaded page into the current swap cluster.
func (m *Manager) noteSwapOut(id PageID) {
	if m.cfg.SwapReadahead <= 0 {
		return
	}
	if m.curCluster == 0 || m.curClusterSlots >= swapClusterSize {
		if n := len(m.freeClusters); n > 0 {
			m.curCluster = m.freeClusters[n-1]
			m.freeClusters = m.freeClusters[:n-1]
		} else {
			if len(m.clusters) == 0 {
				m.clusters = append(m.clusters, swapCluster{}) // the nil cluster
			}
			m.curCluster = clusterID(len(m.clusters))
			m.clusters = append(m.clusters, swapCluster{})
		}
		m.curClusterSlots = 0
	}
	m.clusterPushTail(m.curCluster, id)
	m.curClusterSlots++
}

// dropFromCluster removes a page from its swap cluster index. Keyed on the
// page's own membership rather than the readahead configuration, so pages
// always leave their cluster no matter how they stop being offloaded
// (fault, readahead, or FreePages) — a stale cluster entry would let
// readahead revive a page with no backend slot behind it.
func (m *Manager) dropFromCluster(id PageID) {
	cl := m.page(id).cluster
	if cl == 0 {
		return
	}
	m.clusterRemove(id)
	if m.clusters[cl].n == 0 {
		if cl == m.curCluster {
			// The fill cluster emptied in place (every member faulted or
			// was freed). Reset its slot count so the next swap-out starts
			// a fresh cluster in the same object instead of rotating to a
			// new allocation and leaking this one.
			m.curClusterSlots = 0
		} else {
			m.freeClusters = append(m.freeClusters, cl)
		}
	}
}

// gatherReadahead selects up to SwapReadahead still-offloaded members of the
// faulting page's cluster cl (the page itself has already left it) and
// appends their handles to the pending batch in m.batchHandles/m.batchPages.
// The neighbours ride the faulting page's cluster IO: they are inserted
// unreferenced at the inactive head immediately — the batch is one device
// submission, so their cost is the batch's, already charged to the faulting
// task — with pendingUntil stamped by the caller once the batch latency is
// known. Readahead is opportunistic: a neighbour whose charge would push any
// group in its ancestry over its effective memory.max is skipped rather than
// charged over the limit — mistaken readahead must never cause reclaim or
// OOM pressure of its own.
func (m *Manager) gatherReadahead(cl clusterID) {
	if m.cfg.SwapReadahead <= 0 || cl == 0 {
		return
	}
	loaded := 0
	for q := m.clusters[cl].head; q != 0 && loaded < m.cfg.SwapReadahead; {
		next := m.page(q).clusterNext
		g, t := m.Group(q), m.Type(q)
		// The gather runs before the demand page itself is charged, so a
		// neighbour is eligible only if its ancestry has room for the
		// neighbour AND the demand charge still to come — readahead must
		// never consume the last page of headroom under memory.max.
		if g.overLimitAncestor(2*PageSize) != nil {
			m.readaheadSkips++
			q = next
			continue
		}
		m.batchHandles = append(m.batchHandles, backend.Handle(m.page(q).handle))
		m.batchPages = append(m.batchPages, q)
		m.dropFromCluster(q)
		g.swappedPages--
		m.flags[q] = m.flags[q]&^(flagState|flagActive|flagReferenced) | flagResident
		m.pushHead(&g.lists[t][0], q)
		g.residentPages[t]++
		g.charge(PageSize)
		loaded++
		q = next
	}
	m.readaheadIn += int64(loaded)
}

// Config returns the manager's configuration.
func (m *Manager) Config() Config { return m.cfg }

// Root returns the root group, representing the whole host.
func (m *Manager) Root() *Group { return m.root }

// OOMEvents returns how many charges exceeded capacity despite reclaim.
func (m *Manager) OOMEvents() int64 { return m.oomEvents }

// NewGroup creates a child memory control group under parent (the root if
// nil).
func (m *Manager) NewGroup(name string, parent *Group) *Group {
	if parent == nil {
		parent = m.root
	}
	if parent.mgr != m {
		panic("mm: parent group belongs to a different manager")
	}
	if len(m.groups) == maxGroups {
		panic("mm: too many groups")
	}
	g := &Group{name: name, mgr: m, parent: parent, idx: uint16(len(m.groups))}
	m.groups = append(m.groups, g)
	parent.children = append(parent.children, g)
	return g
}

// SetLimit sets g's memory.max. If current usage exceeds the new limit the
// excess is reclaimed synchronously, as writing memory.max does in the
// kernel. It returns the reclaim outcome (zero result if none was needed).
func (m *Manager) SetLimit(now vclock.Time, g *Group, limit int64) ReclaimResult {
	g.limitBytes = limit
	if limit <= 0 {
		return ReclaimResult{}
	}
	if over := g.usageForLimit() - limit; over > 0 {
		return m.reclaim(now, g, over, false)
	}
	return ReclaimResult{}
}

// SetCapacity changes host DRAM to bytes at runtime — a ballooning
// neighbour or hotplug event shrinking (or restoring) the memory actually
// available to this host. Shrinking below current usage reclaims the excess
// synchronously from the root, exactly as if the root's memory.max dropped.
func (m *Manager) SetCapacity(now vclock.Time, bytes int64) ReclaimResult {
	if bytes <= 0 {
		panic("mm: SetCapacity requires positive bytes")
	}
	m.cfg.CapacityBytes = bytes
	if over := m.root.usageForLimit() - bytes; over > 0 {
		return m.reclaim(now, m.root, over, false)
	}
	return ReclaimResult{}
}

// ProactiveReclaim is the memory.reclaim control file (§3.3): it asks the
// kernel to reclaim the given number of bytes from g's subtree without
// changing any limit. This is the stateless knob Senpai drives.
func (m *Manager) ProactiveReclaim(now vclock.Time, g *Group, bytes int64) ReclaimResult {
	if bytes <= 0 {
		return ReclaimResult{}
	}
	return m.reclaim(now, g, bytes, false)
}

// HostStat summarises host-level memory occupancy.
type HostStat struct {
	CapacityBytes int64
	// ResidentBytes is application-resident memory across all groups.
	ResidentBytes int64
	// PoolBytes is DRAM consumed by the swap backend (zswap pool).
	PoolBytes int64
	// FreeBytes is unallocated DRAM.
	FreeBytes int64
	// FarBytes is application memory placed on the far node — mapped and
	// accessible, but costing no local DRAM (excluded from ResidentBytes).
	FarBytes int64
}

// HostStat returns the current host occupancy.
func (m *Manager) HostStat() HostStat {
	var pool, far int64
	if m.cfg.Swap != nil {
		pool = m.cfg.Swap.PoolBytes()
	}
	if m.cfg.Far != nil {
		far = m.cfg.Far.UsedBytes()
	}
	res := m.root.hierResidentBytes
	return HostStat{
		CapacityBytes: m.cfg.CapacityBytes,
		ResidentBytes: res,
		PoolBytes:     pool,
		FreeBytes:     m.cfg.CapacityBytes - res - pool,
		FarBytes:      far,
	}
}

// NewPages creates n pages of the given type owned by g, in the NotPresent
// state, and returns their IDs, which ascend; the pages consume no memory
// until first touched. compressibility is the content's compression ratio
// when offloaded to zswap.
func (m *Manager) NewPages(g *Group, t PageType, n int, compressibility float64) []PageID {
	if g.mgr != m {
		panic("mm: group belongs to a different manager")
	}
	if compressibility < 1 {
		compressibility = 1
	}
	first := max(len(m.flags), 1) // ID 0 is the nil page
	if int64(first)+int64(n) > math.MaxInt32 {
		panic("mm: page arena full")
	}
	need := first + n
	if need > m.reserved {
		if m.reserved == 0 {
			// The first pages reserve hot arrays for a host's DRAM worth
			// of pages, which most hosts' footprints fit: 20 bytes per
			// page of DRAM, and no copying while the host builds its
			// pages.
			m.reserve(max(need, int(m.cfg.CapacityBytes/PageSize)+1))
		} else {
			m.reserve(max(need, 2*m.reserved))
		}
	}
	m.flags = m.flags[:need]
	m.lastTouch = m.lastTouch[:need]
	m.links = m.links[:need]
	m.owners = m.owners[:need]
	m.farHits = m.farHits[:need]
	owner := pageOwner(g.idx)<<1 | pageOwner(t)
	ids := make([]PageID, n)
	for i := range ids {
		id := PageID(first + i)
		m.owners[id] = owner
		if int(id>>chunkShift) == len(m.cold) {
			m.cold = append(m.cold, new(coldChunk))
		}
		m.page(id).compressibility = compressibility
		ids[i] = id
	}
	return ids
}

// reserve grows the hot arrays' capacity to at least c pages. Growth at
// least doubles it, so a host that builds its pages in many NewPages calls
// copies each element about once.
func (m *Manager) reserve(c int) {
	m.reserved = c
	m.flags = grow(m.flags, c)
	m.lastTouch = grow(m.lastTouch, c)
	m.links = grow(m.links, c)
	m.owners = grow(m.owners, c)
	m.farHits = grow(m.farHits, c)
	if m.cold == nil {
		m.cold = make([]*coldChunk, 0, (c+chunkMask)>>chunkShift)
	}
}

// grow returns s with capacity at least c.
func grow[T any](s []T, c int) []T {
	if cap(s) < c {
		s = slices.Grow(s, c-len(s))
	}
	return s
}

// TouchResult describes the outcome of one page access.
type TouchResult struct {
	// Fault reports whether the access missed DRAM.
	Fault bool
	// Latency is the synchronous wait the task served for the fault
	// itself (device read or decompression).
	Latency vclock.Duration
	// MemStall reports whether Latency counts toward memory pressure:
	// true for swap-ins and refaults, false for first-time file reads.
	MemStall bool
	// IOStall reports whether Latency counts toward IO pressure: true
	// whenever block IO was performed.
	IOStall bool
	// DirectReclaimStall is additional memory-stall time spent in
	// charge-triggered direct reclaim (always a memory stall, per §3.2.3).
	DirectReclaimStall vclock.Duration
	// Classification of the fault, when Fault is set.
	SwapIn, Refault, ColdRead, ZeroFill bool
	// Coalesced marks a swap-in served by a batch already in flight: the
	// task waited out the batch's remainder rather than issuing a load.
	Coalesced bool
}

// TotalStall returns the task's total wait for this access.
func (r TouchResult) TotalStall() vclock.Duration { return r.Latency + r.DirectReclaimStall }

// TouchWrite simulates a write access: like Touch, but the page is left
// dirty, so its eventual eviction must write it back to storage. Writing a
// not-yet-present file page is a buffered write — the cache page is
// populated without reading old content from storage.
func (m *Manager) TouchWrite(now vclock.Time, id PageID) TouchResult {
	if m.Type(id) == File && m.State(id) == NotPresent {
		res := TouchResult{Fault: true, ZeroFill: true}
		res.DirectReclaimStall = m.tryCharge(now, m.Group(id))
		m.makeResident(now, id)
		m.page(id).dirty = true
		m.noteFault(res)
		return res
	}
	res := m.Touch(now, id)
	if m.Type(id) == File {
		m.page(id).dirty = true
	}
	return res
}

// Touch simulates one access to page id at time now, handling any fault and
// LRU bookkeeping, and returns what the accessing task experienced.
func (m *Manager) Touch(now vclock.Time, id PageID) TouchResult {
	if m.touchHit(now, id) {
		return TouchResult{}
	}
	res := m.touch(now, id)
	if res.Fault {
		m.noteFault(res)
	}
	return res
}

// touchHit is Touch's fast path for a hit: if page id is resident on the
// local node with no batched load in flight, it records the access, whose
// TouchResult is zero, and returns true. Otherwise it changes nothing and
// returns false. A plain hit reads the page's flag byte and writes its
// flags and lastTouch; the cold record is read only while flagPending is
// set.
func (m *Manager) touchHit(now vclock.Time, id PageID) bool {
	f := m.flags[id]
	if f&(flagState|flagFar|flagPending) != flagResident {
		if f&(flagState|flagFar) != flagResident || m.page(id).pendingUntil > now {
			return false
		}
	}
	m.lastTouch[id] = now
	if f&(flagReferenced|flagActive) == flagReferenced|flagActive {
		// markAccessed would change nothing.
		m.flags[id] = f | flagTouched
		return true
	}
	m.markAccessed(id)
	m.flags[id] |= flagTouched
	return true
}

// touch is Touch for every access touchHit declines, without the
// telemetry publication.
func (m *Manager) touch(now vclock.Time, id PageID) TouchResult {
	f := m.flags[id]
	if f&(flagState|flagFar) == flagResident|flagFar {
		// Byte-addressable far access: the page is mapped, so there is no
		// fault — the load itself runs at link latency. The wait is
		// accounted as a memory stall (§3.2.3 attributes any memory-wait
		// to memory pressure), which is what lets Senpai and the placement
		// loop balance placement pressure.
		lat := m.cfg.Far.AccessDelay(now)
		if f&flagReferenced == 0 && f&flagOnList != 0 {
			m.Group(id).farList.refs++
		}
		if m.farHits[id] < ^uint8(0) {
			m.farHits[id]++
		}
		m.flags[id] = f | flagReferenced | flagTouched
		m.lastTouch[id] = now
		return TouchResult{Latency: lat, MemStall: true}
	}
	g := m.Group(id)
	p := m.page(id)
	var res TouchResult
	switch PageState(f & flagState) {
	case Resident:
		// The page is still in flight on a batched load another fault
		// submitted (touchHit took every other local resident touch):
		// coalesce onto that batch. The task waits out the remainder
		// instead of issuing a duplicate load.
		remainder := p.pendingUntil.Sub(now)
		ioStall := p.pendingIO
		m.clearPending(id)
		p.refaulted = true
		m.markAccessed(id)
		m.flags[id] |= flagTouched
		m.lastTouch[id] = now
		g.noteCost(now, Anon)
		return TouchResult{
			Fault:     true,
			SwapIn:    true,
			Coalesced: true,
			Latency:   remainder,
			MemStall:  true,
			IOStall:   ioStall,
		}

	case NotPresent:
		if m.Type(id) == File {
			// First read of a file page: block IO, not a memory stall.
			res.Fault, res.ColdRead, res.IOStall = true, true, true
			res.Latency = m.cfg.FS.ReadPage(now) + faultOverhead
			g.stat.ColdFileReads++
		} else {
			// First touch of anon memory: zero-fill, no IO.
			res.Fault, res.ZeroFill = true, true
		}

	case Offloaded:
		cl := p.cluster
		m.dropFromCluster(id)
		if cl != 0 && m.clusters[cl].n == 0 {
			// The fault emptied its cluster, and dropFromCluster has
			// already recycled it (onto freeClusters, or reset in place if
			// it was the fill cluster). An empty cluster has no neighbours
			// to read ahead, so forget it.
			cl = 0
		}
		// Gather the whole cluster — demand page plus eligible readahead
		// neighbours — and submit it as ONE batched load: the device pays
		// its fixed per-submission cost once, and the neighbour reads no
		// longer land as free extra ops on the read meter (which used to
		// inflate the queue factor for the very next demand fault).
		m.batchHandles = append(m.batchHandles[:0], backend.Handle(p.handle))
		m.batchPages = m.batchPages[:0]
		m.gatherReadahead(cl)
		load := m.cfg.Swap.LoadBatch(now, m.batchHandles)
		if m.swapExhausted {
			// Space was just released; allow anon scanning again.
			m.swapExhausted = false
		}
		// Neighbours become Resident at batch completion: a touch before
		// then coalesces onto this batch and waits out the remainder.
		arrival := now.Add(load.Latency)
		for _, q := range m.batchPages {
			m.setPending(q, arrival, load.BlockIO)
		}
		g.stat.SwapIns++
		g.swappedPages--
		g.noteCost(now, Anon)
		// A demand swap-in is a refault: the page's reuse distance proved
		// shorter than its offload. The flag rides to the next offload so
		// the backend can bias this page toward a faster tier.
		p.refaulted = true
		res = TouchResult{
			Fault:    true,
			SwapIn:   true,
			Latency:  load.Latency + faultOverhead,
			MemStall: true,
			IOStall:  load.BlockIO,
		}

	case EvictedFile:
		res = TouchResult{Fault: true, IOStall: true}
		res.Latency = m.cfg.FS.ReadPage(now) + faultOverhead
		if p.hasShadow {
			distance := g.evictions - p.shadow
			p.hasShadow = false
			// The kernel classifies the fault as a working-set refault
			// when the reuse distance fits within the memory the group
			// has resident.
			if distance <= uint64(g.residentPages[Anon]+g.residentPages[File])+1 {
				res.Refault, res.MemStall = true, true
				g.stat.Refaults++
				g.noteCost(now, File)
			} else {
				res.ColdRead = true
				g.stat.ColdFileReads++
			}
		} else {
			res.ColdRead = true
			g.stat.ColdFileReads++
		}
	}
	// Every other state faults the page in: charge it, then make it
	// resident.
	res.DirectReclaimStall = m.tryCharge(now, g)
	m.makeResident(now, id)
	return res
}

// markAccessed implements mark_page_accessed: the first touch sets the
// referenced bit; a second touch promotes an inactive page to the active
// list. Page id must be local.
func (m *Manager) markAccessed(id PageID) {
	f := m.flags[id]
	if f&flagReferenced == 0 {
		m.flags[id] = f | flagReferenced
		if f&flagOnList != 0 {
			m.listOf(id).refs++
		}
		return
	}
	if f&flagActive == 0 {
		g, t := m.Group(id), m.Type(id)
		m.remove(&g.lists[t][0], id)
		m.flags[id] = m.flags[id]&^flagReferenced | flagActive
		m.pushHead(&g.lists[t][1], id)
		m.activations++
	}
}

// makeResident charges and inserts a faulted page at the inactive head. In
// static-interleave mode (the baseline the placement loop is measured
// against) a deterministic fraction of new anonymous pages land on the far
// node instead, uncharged.
func (m *Manager) makeResident(now vclock.Time, id PageID) {
	g, t := m.Group(id), m.Type(id)
	m.flags[id] = m.flags[id]&^(flagState|flagActive) | flagResident | flagReferenced | flagTouched
	m.clearPending(id)
	m.lastTouch[id] = now
	if t == Anon && m.farInterleave > 0 && m.cfg.Far != nil {
		m.interleaveAcc += m.farInterleave
		if m.interleaveAcc >= 1 && m.cfg.Far.TryReserve(PageSize) {
			m.interleaveAcc--
			m.placeFar(g, id)
			return
		}
	}
	m.pushHead(&g.lists[t][0], id)
	g.residentPages[t]++
	g.charge(PageSize)
}

// tryCharge makes room for one page if some limit in g's ancestry would be
// exceeded, returning the direct-reclaim stall served by the faulting task.
// If reclaim cannot make room the charge proceeds anyway and an OOM event is
// recorded; the simulated workloads throttle themselves before this point,
// as the paper's Web tier does.
func (m *Manager) tryCharge(now vclock.Time, g *Group) vclock.Duration {
	worst := g.overLimitAncestor(PageSize)
	if worst == nil {
		return 0
	}
	need := worst.usageForLimit() + PageSize - worst.effectiveLimit()
	g.stat.DirectReclaims++
	res := m.reclaim(now, worst, need, true)
	if res.ReclaimedBytes < need {
		m.oomEvents++
		g.stat.OOMEvents++
	}
	return res.StallTime
}

// effectiveLimit returns the limit enforced for the group: memory.max, or
// host capacity for the root.
func (g *Group) effectiveLimit() int64 {
	if g == g.mgr.root {
		return g.mgr.cfg.CapacityBytes
	}
	return g.limitBytes
}

// FreePages releases pages back to the NotPresent state, discarding content:
// resident pages uncharge immediately, offloaded pages free their backend
// slot, evicted file pages drop their shadow. Workload restarts (the
// "code push" events in Figs. 11 and 13) are modeled with this.
func (m *Manager) FreePages(ids []PageID) {
	for _, id := range ids {
		p := m.page(id)
		switch m.State(id) {
		case NotPresent:
			// Never populated since created or freed: already clean.
			continue
		case Resident:
			g := m.Group(id)
			if m.flags[id]&flagFar != 0 {
				m.leaveFar(g, id)
				break
			}
			m.remove(m.listOf(id), id)
			g.residentPages[m.Type(id)]--
			g.charge(-PageSize)
		case Offloaded:
			m.cfg.Swap.Free(backend.Handle(p.handle))
			m.Group(id).swappedPages--
			m.dropFromCluster(id)
		}
		m.flags[id] &^= flagState | flagActive | flagReferenced | flagTouched
		p.hasShadow, p.dirty, p.refaulted = false, false, false
		m.clearPending(id)
	}
}

// Coldness histograms a page population by time since last access, the
// measurement behind Fig. 2. windows must be ascending; the result has
// len(windows)+1 entries: the fraction of allocated memory touched within
// each window, and finally the fraction untouched beyond the last window.
// Allocated memory means pages that exist somewhere (resident or offloaded);
// NotPresent pages are not counted.
func (m *Manager) Coldness(now vclock.Time, ids []PageID, windows []vclock.Duration) []float64 {
	counts := make([]int64, len(windows)+1)
	var total int64
	for _, id := range ids {
		if s := m.State(id); s == NotPresent || s == EvictedFile {
			continue
		}
		total++
		if m.flags[id]&flagTouched == 0 {
			counts[len(windows)]++
			continue
		}
		age := now.Sub(m.lastTouch[id])
		placed := false
		for i, w := range windows {
			if age <= w {
				counts[i]++
				placed = true
				break
			}
		}
		if !placed {
			counts[len(windows)]++
		}
	}
	out := make([]float64, len(counts))
	if total == 0 {
		return out
	}
	for i, c := range counts {
		out[i] = float64(c) / float64(total)
	}
	return out
}
