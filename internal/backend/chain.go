package backend

import (
	"fmt"

	"tmo/internal/metrics"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// This file implements the N-tier software-defined compressed-memory chain
// following "Taming Server Memory TCO with Multiple Software-Defined
// Compressed Tiers" (arXiv 2404.13886): an ordered list of tiers with
// distinct latency/ratio points — e.g. an lz4 fast tier over a zstd dense
// tier over SSD swap — where new pages land in the fastest tier with
// headroom, cold pages demote down-chain when a tier crosses its pressure
// watermark, and refaulting pages promote back up so a page's resting tier
// tracks its actual reuse distance.
//
// Every swap mode is a chain: a one-tier chain is a plain zswap pool, SSD
// swap partition, or NVM device. Whatever the layout, the chain alone books
// swapped pages — one entry per page in one map — and the tiers only price
// the work (see Zswap, SSDSwap, NVM).

// TierKind distinguishes the tier substrates a chain can stack.
type TierKind int

// The supported tier kinds.
const (
	// TierZswap is a compressed in-DRAM pool (codec + allocator model).
	TierZswap TierKind = iota
	// TierSSD is uncompressed swap on the host SSD. At most one SSD tier
	// is allowed and it must be the last (slowest) tier.
	TierSSD
	// TierNVM is byte-addressable persistent memory (SpecNVMOptane): no
	// compression, no block IO, no host DRAM. Like TierSSD it must be the
	// last tier.
	TierNVM
)

// TierSpec describes one tier of a chain: its substrate, capacity, and
// placement thresholds.
type TierSpec struct {
	// Kind selects the substrate.
	Kind TierKind
	// Codec is the compression algorithm for TierZswap tiers; its
	// RatioFactor and latency distributions give the tier its point on the
	// latency/ratio curve. Ignored for uncompressed tiers.
	Codec Codec
	// Alloc is the pool allocator for TierZswap tiers; the zero value
	// defaults to zsmalloc. Ignored for uncompressed tiers.
	Alloc Allocator
	// CapacityBytes bounds the tier and must be positive: the pool's DRAM
	// budget for TierZswap, the partition or device size otherwise.
	CapacityBytes int64
	// MinCompressRatio is the admission threshold for TierZswap tiers: a
	// page is admitted only when its effective ratio (content ratio x the
	// codec's RatioFactor) reaches it, so incompressible pages skip dense
	// tiers instead of wasting pool DRAM. Values below 1 mean no threshold.
	MinCompressRatio float64
	// HighWater and LowWater are occupancy fractions of CapacityBytes. A
	// tier above HighWater demotes LRU entries down-chain until it is back
	// under LowWater; the band above HighWater is reserved headroom that
	// only refault promotions may fill. Zero values default to 0.90/0.75.
	HighWater, LowWater float64
}

// Default watermark fractions for TierSpec.
const (
	DefaultHighWater = 0.90
	DefaultLowWater  = 0.75
)

// normalize fills zero-valued defaults in place.
func (ts *TierSpec) normalize() {
	if ts.Kind == TierZswap && ts.Alloc.Name == "" {
		ts.Alloc = AllocZsmalloc
	}
	if ts.HighWater <= 0 || ts.HighWater > 1 {
		ts.HighWater = DefaultHighWater
	}
	if ts.LowWater <= 0 || ts.LowWater >= ts.HighWater {
		ts.LowWater = DefaultLowWater
		if ts.LowWater >= ts.HighWater {
			ts.LowWater = ts.HighWater * 0.8
		}
	}
	if ts.MinCompressRatio < 1 {
		ts.MinCompressRatio = 1
	}
}

// Label names the tier for telemetry and signatures: the codec name for
// compressed tiers, "ssd" or "nvm" for the uncompressed last tier.
func (ts TierSpec) Label() string {
	switch ts.Kind {
	case TierSSD:
		return "ssd"
	case TierNVM:
		return "nvm"
	}
	return ts.Codec.Name
}

// CodecByName resolves a codec by its catalog name (zstd, lz4, lzo).
func CodecByName(name string) (Codec, bool) {
	switch name {
	case "zstd":
		return CodecZstd, true
	case "lz4":
		return CodecLz4, true
	case "lzo":
		return CodecLzo, true
	}
	return Codec{}, false
}

// DefaultChainSpecs returns the classic two-tier layout the old Tiered
// backend hard-coded: a zstd pool of poolBytes fronting SSD swap of
// swapBytes, with the paper's 1.5x admission threshold routing
// poorly-compressing pages straight to flash.
func DefaultChainSpecs(poolBytes, swapBytes int64) []TierSpec {
	return []TierSpec{
		{Kind: TierZswap, Codec: CodecZstd, CapacityBytes: poolBytes, MinCompressRatio: 1.5},
		{Kind: TierSSD, CapacityBytes: swapBytes},
	}
}

// demoteBatchPages bounds how many LRU victims one demotion round moves
// down-chain: large enough to amortise the destination's per-submission
// cost, small enough that a single manage pass cannot monopolise the tick.
const demoteBatchPages = 32

// chainEntry is the one record of a swapped page. The outer Handle held by
// the memory manager keys it, so demotion rewrites only the entry and mm
// handles survive tier migration.
type chainEntry struct {
	tier            int
	logical, stored int64
	// ratio is the content's intrinsic compression ratio, remembered so
	// demotion can re-run admission at the destination tier.
	ratio float64
}

// chainTier is one instantiated tier: its layout, its cost model (exactly
// one of zs, ssd, nvm), and the Stats of the entries it holds.
type chainTier struct {
	spec  TierSpec
	zs    *Zswap
	ssd   *SSDSwap
	nvm   *NVM
	stats Stats
	// lru holds, from lruHead on, the outer handles that entered the tier
	// in arrival order: the demotion victims, oldest first. Entries that
	// have since left the tier are skipped lazily and compacted away once
	// they outnumber the live ones. Only tiers with a lower tier keep one.
	lru     []Handle
	lruHead int

	// demotions counts pages demoted out of the tier; promotions counts
	// refault stores that landed in it above where a cold store would
	// have.
	demotions, promotions int64

	// ratioHist counts a pool tier's per-page compression ratios in
	// hundredths; EnableTelemetry registers it.
	ratioHist metrics.Histogram
}

// TierChain is an ordered chain of offload tiers and the ledger of every page
// swapped into them. Tier 0 is the fastest; placement walks down-chain until
// a tier admits the page and has headroom, ErrFull surfaces only when the
// last tier is full.
type TierChain struct {
	tiers   []chainTier
	entries map[Handle]chainEntry
	next    Handle

	admitSkips  int64 // tier skips due to MinCompressRatio
	demoteStall int64 // demotion rounds cut short by writeback backpressure
	rejects     int64 // store batches that ended in ErrFull

	// Per-tier scratch, reused across calls so the batched fault and
	// reclaim paths stay zero-alloc.
	storeIdx     [][]int
	storePending []int64
	loadPages    []int
	loadBytes    []int64

	// trace is the decision recorder, nil until SetTrace.
	trace *trace.Recorder
}

// NewTierChain builds a chain from specs. Every tier needs a positive
// CapacityBytes; at most one uncompressed tier (SSD or NVM) is allowed and
// it must be last. The SSD tier is carved from dev (which the filesystem may
// share) and its async writeback queue holds up to wbDepth submissions
// (zero selects DefaultWritebackDepth). seed derives each tier's
// latency-sampling stream.
func NewTierChain(specs []TierSpec, dev *SSDDevice, wbDepth int, seed uint64) *TierChain {
	if len(specs) == 0 {
		panic("backend: tier chain needs at least one tier")
	}
	n := len(specs)
	c := &TierChain{
		entries:      make(map[Handle]chainEntry),
		storeIdx:     make([][]int, n),
		storePending: make([]int64, n),
		loadPages:    make([]int, n),
		loadBytes:    make([]int64, n),
	}
	for i, ts := range specs {
		ts.normalize()
		if ts.CapacityBytes <= 0 {
			panic(fmt.Sprintf("backend: chain tier %d (%s) needs a positive capacity", i, ts.Label()))
		}
		if ts.Kind != TierZswap && i != n-1 {
			panic(fmt.Sprintf("backend: chain %s tier must be last (got position %d)", ts.Label(), i))
		}
		tierSeed := seed + uint64(i)*0x9e3779b9
		t := chainTier{spec: ts}
		switch ts.Kind {
		case TierZswap:
			t.zs = newZswap(ts.Codec, ts.Alloc, tierSeed)
		case TierSSD:
			if dev == nil {
				panic("backend: chain SSD tier needs a device")
			}
			t.ssd = &SSDSwap{dev: dev, wb: newWritebackQueue(dev, wbDepth)}
		case TierNVM:
			t.nvm = newNVM(SpecNVMOptane, tierSeed)
		default:
			panic(fmt.Sprintf("backend: unknown tier kind %d", ts.Kind))
		}
		c.tiers = append(c.tiers, t)
	}
	return c
}

// TierSpecs returns a copy of the normalized tier layout.
func (c *TierChain) TierSpecs() []TierSpec {
	out := make([]TierSpec, len(c.tiers))
	for i, t := range c.tiers {
		out[i] = t.spec
	}
	return out
}

// TierStats reports tier i's contents and traffic.
func (c *TierChain) TierStats(i int) Stats { return c.tiers[i].stats }

// Demotions returns how many pages watermark pressure has moved down-chain.
func (c *TierChain) Demotions() int64 {
	var n int64
	for i := range c.tiers {
		n += c.tiers[i].demotions
	}
	return n
}

// Promotions returns how many refaulting pages landed in a faster tier than
// a cold store would have reached.
func (c *TierChain) Promotions() int64 {
	var n int64
	for i := range c.tiers {
		n += c.tiers[i].promotions
	}
	return n
}

// AdmitSkips returns how many tier placements skipped a compressed tier
// because the content failed its MinCompressRatio admission threshold.
func (c *TierChain) AdmitSkips() int64 { return c.admitSkips }

// DemoteBackpressure returns how many demotion rounds were cut short by the
// SSD writeback queue's backpressure.
func (c *TierChain) DemoteBackpressure() int64 { return c.demoteStall }

// SSD returns the chain's SSD tier, if any.
func (c *TierChain) SSD() *SSDSwap { return c.tiers[len(c.tiers)-1].ssd }

// CapacityBytes returns the chain's total capacity across tiers.
func (c *TierChain) CapacityBytes() int64 {
	var sum int64
	for _, t := range c.tiers {
		sum += t.spec.CapacityBytes
	}
	return sum
}

// admissible reports whether tier t admits content with the given intrinsic
// compression ratio. A lone tier has nowhere to route a page past, so it
// admits everything.
func (c *TierChain) admissible(t int, ratio float64) bool {
	tier := &c.tiers[t]
	if tier.zs == nil || len(c.tiers) == 1 {
		return true
	}
	return ratio*tier.spec.Codec.RatioFactor >= tier.spec.MinCompressRatio
}

// storedSize returns the physical bytes one page consumes in tier t.
func (c *TierChain) storedSize(t int, pageBytes int64, ratio float64) int64 {
	if zs := c.tiers[t].zs; zs != nil {
		return zs.storedSize(pageBytes, ratio)
	}
	return pageBytes
}

// fits reports whether tier t can hold stored more bytes on top of its
// current occupancy plus pending (bytes already claimed by earlier pages of
// the same batch). A non-refault store into a non-last tier is admitted
// while occupancy sits at or below the HighWater line — it may cross the
// line (which arms the chain manager's next demotion pass) but once over,
// further cold stores bypass down-chain: the band above HighWater is
// reserved headroom for refault promotions until the manager drains the
// tier back under LowWater. Refault stores and the last tier fill to full
// capacity, so ErrFull means the whole chain is out of room.
func (c *TierChain) fits(t int, stored, pending int64, refault bool) bool {
	tier := &c.tiers[t]
	cap := tier.spec.CapacityBytes
	occ := tier.stats.StoredBytes + pending
	if occ+stored > cap {
		return false
	}
	if !refault && t != len(c.tiers)-1 {
		high := int64(float64(cap) * tier.spec.HighWater)
		return occ <= high
	}
	return true
}

// place picks the destination tier for one page: the fastest tier at or
// below from that admits the content and has headroom. A second pass
// ignores admission thresholds so an incompressible page still lands in a
// compressed-only chain rather than failing. Returns -1 when no tier fits.
// countSkips suppresses the admission-skip counters for advisory lookups.
func (c *TierChain) place(from int, pageBytes int64, ratio float64, pending []int64, refault, countSkips bool) int {
	for t := from; t < len(c.tiers); t++ {
		if !c.admissible(t, ratio) {
			if countSkips {
				c.admitSkips++
			}
			continue
		}
		var pend int64
		if pending != nil {
			pend = pending[t]
		}
		if c.fits(t, c.storedSize(t, pageBytes, ratio), pend, refault) {
			return t
		}
	}
	for t := from; t < len(c.tiers); t++ {
		if c.admissible(t, ratio) {
			continue // already tried above
		}
		var pend int64
		if pending != nil {
			pend = pending[t]
		}
		if c.fits(t, c.storedSize(t, pageBytes, ratio), pend, refault) {
			return t
		}
	}
	return -1
}

// placeFresh is place() for a new store, counting a promotion when the
// refault bias moved the page above where a cold store would have landed.
func (c *TierChain) placeFresh(pageBytes int64, ratio float64, pending []int64, refault bool) int {
	t := c.place(0, pageBytes, ratio, pending, refault, true)
	if refault && t >= 0 {
		if cold := c.place(0, pageBytes, ratio, pending, false, false); cold < 0 || t < cold {
			c.tiers[t].promotions++
		}
	}
	return t
}

// admit books a page into tier t under outer handle h, replacing any entry
// h had in a higher tier.
func (c *TierChain) admit(h Handle, t int, logical, stored int64, ratio float64) {
	tier := &c.tiers[t]
	c.entries[h] = chainEntry{tier: t, logical: logical, stored: stored, ratio: ratio}
	tier.stats.StoredPages++
	tier.stats.LogicalBytes += logical
	tier.stats.StoredBytes += stored
	tier.stats.TotalWrites++
	if t < len(c.tiers)-1 {
		tier.lru = append(tier.lru, h)
		c.trimVictims(t)
	}
}

// release drops h's entry and takes its bytes off its tier, reporting false
// for an unknown handle.
func (c *TierChain) release(h Handle) (chainEntry, bool) {
	e, ok := c.entries[h]
	if ok {
		delete(c.entries, h)
		st := &c.tiers[e.tier].stats
		st.StoredPages--
		st.LogicalBytes -= e.logical
		st.StoredBytes -= e.stored
		c.trimVictims(e.tier)
	}
	return e, ok
}

// trimVictims compacts tier t's demotion FIFO once the entries that have
// left the tier outnumber the live ones, so the FIFO never holds more than
// twice the tier's pages plus one; each compaction is paid for by the
// departures that made it due.
func (c *TierChain) trimVictims(t int) {
	tier := &c.tiers[t]
	if int64(len(tier.lru)) <= 2*tier.stats.StoredPages+1 {
		return
	}
	kept := tier.lru[:0]
	for _, h := range tier.lru[tier.lruHead:] {
		if e, ok := c.entries[h]; ok && e.tier == t {
			kept = append(kept, h)
		}
	}
	tier.lru, tier.lruHead = kept, 0
}

// oldest returns tier t's longest-resident page, if any, skipping FIFO
// entries that have left the tier.
func (c *TierChain) oldest(t int) (Handle, bool) {
	tier := &c.tiers[t]
	for ; tier.lruHead < len(tier.lru); tier.lruHead++ {
		h := tier.lru[tier.lruHead]
		if e, ok := c.entries[h]; ok && e.tier == t {
			return h, true
		}
	}
	return 0, false
}

// submit pays a store submission of pages/bytes into an uncompressed tier:
// one writeback-queue submission for SSD, which counts the bytes against
// endurance and returns the backpressure stall; nothing for NVM.
func (tier *chainTier) submit(now vclock.Time, pages int, bytes int64) vclock.Duration {
	if tier.ssd == nil {
		return 0
	}
	tier.stats.WrittenBytes += bytes
	return tier.ssd.write(now, pages, bytes)
}

// StoreBatch offloads len(reqs) pages in one submission, filling out[:n]
// with per-page results (len(out) must be >= len(reqs)). One pass assigns
// every page its destination tier against exact occupancy projections; then
// each tier's share is booked and priced as one sub-batch, in tier order, so
// per-submission costs amortise per tier: zswap discounts the codec latency
// of its tail pages, the SSD tier's share is one writeback submission whose
// backpressure stall, if any, is charged to its first page. A batch stores
// a prefix: the first page with no destination anywhere in the chain
// defines n and ErrFull is returned.
func (c *TierChain) StoreBatch(now vclock.Time, reqs []StoreReq, out []StoreResult) (int, error) {
	for t := range c.tiers {
		c.storeIdx[t] = c.storeIdx[t][:0]
		c.storePending[t] = 0
	}
	n := len(reqs)
	for i, req := range reqs {
		t := c.placeFresh(req.PageBytes, req.CompressRatio, c.storePending, req.Refault)
		if t < 0 {
			n = i
			break
		}
		c.storePending[t] += c.storedSize(t, req.PageBytes, req.CompressRatio)
		c.storeIdx[t] = append(c.storeIdx[t], i)
	}

	// Handles go out in request order, whichever tier a page lands in.
	first := c.next
	c.next += Handle(n)
	for t := range c.tiers {
		idx := c.storeIdx[t]
		if len(idx) == 0 {
			continue
		}
		tier := &c.tiers[t]
		var bytes int64
		for j, i := range idx {
			req := reqs[i]
			res := StoreResult{Handle: first + Handle(i), StoredBytes: c.storedSize(t, req.PageBytes, req.CompressRatio)}
			if tier.zs != nil {
				res.Latency = tier.zs.compress(j)
				// A page smaller than the allocator's packing limit can
				// store as 0 bytes, so the ratio divides by at least 1.
				tier.ratioHist.Record(100 * req.PageBytes / max(res.StoredBytes, 1))
			} else if tier.ssd != nil {
				res.DeviceWrite = req.PageBytes
			}
			bytes += req.PageBytes
			c.admit(res.Handle, t, req.PageBytes, res.StoredBytes, req.CompressRatio)
			out[i] = res
		}
		if tier.zs == nil {
			out[idx[0]].Latency += tier.submit(now, len(idx), bytes)
		}
	}

	if n < len(reqs) {
		c.rejects++
		return n, ErrFull
	}
	return n, nil
}

// LoadBatch brings every page in hs back to DRAM in one submission and
// releases their space; loading an unknown handle panics. The cluster is
// partitioned by tier and each tier serves its share as one submission; the
// latencies sum — fast tiers decompress (tail pages at the amortised codec
// cost) while the SSD seeks once for all its pages plus a byte-rate
// transfer term.
func (c *TierChain) LoadBatch(now vclock.Time, hs []Handle) BatchLoadResult {
	for t := range c.tiers {
		c.loadPages[t], c.loadBytes[t] = 0, 0
	}
	for _, h := range hs {
		e, ok := c.release(h)
		if !ok {
			panic(fmt.Sprintf("backend: load of unknown chain handle %d", h))
		}
		c.tiers[e.tier].stats.TotalReads++
		c.loadPages[e.tier]++
		c.loadBytes[e.tier] += e.logical
	}
	var res BatchLoadResult
	for t := range c.tiers {
		pages := c.loadPages[t]
		if pages == 0 {
			continue
		}
		switch tier := &c.tiers[t]; {
		case tier.zs != nil:
			for i := 0; i < pages; i++ {
				res.Latency += tier.zs.decompress(i)
			}
		case tier.ssd != nil:
			res.Latency += tier.ssd.read(now, pages, c.loadBytes[t])
			res.BlockIO = true
		default:
			for i := 0; i < pages; i++ {
				res.Latency += tier.nvm.read()
			}
		}
	}
	return res
}

// DrainWriteback completes asynchronous swap-out writeback due by now: the
// SSD tier issues its queued writes, then the chain manager runs one
// watermark pass, demoting the oldest entries out of any tier above its
// HighWater mark. The simulator calls it once per tick; the SSD tier also
// drains lazily on its own operations, so use without a tick loop stays
// correct.
func (c *TierChain) DrainWriteback(now vclock.Time) {
	if s := c.SSD(); s != nil {
		s.wb.drain(now)
	}
	c.manage(now)
}

// manage is the chain manager's demotion pass. Tiers are visited fastest
// first so a demotion that pushes the next tier over ITS watermark cascades
// within the same pass. Victims move in LRU order (matching zswap's
// writeback order) in batches, re-running admission at each lower tier so
// incompressible entries keep falling until a tier takes them. Demotion
// into the SSD tier lands on the async writeback queue; a backpressure
// stall there ends the round — the device is already behind, pushing more
// migration traffic at it would only grow the stall reclaim sees.
func (c *TierChain) manage(now vclock.Time) {
	for t := 0; t < len(c.tiers)-1; t++ {
		tier := &c.tiers[t]
		cap := tier.spec.CapacityBytes
		high := int64(float64(cap) * tier.spec.HighWater)
		if tier.stats.StoredBytes <= high {
			continue
		}
		target := int64(float64(cap) * tier.spec.LowWater)
		before := tier.stats.LogicalBytes
		pages, backpressure := 0, false
		for tier.stats.StoredBytes > target {
			var moved int
			moved, backpressure = c.demoteBatch(now, t, target)
			pages += moved
			if backpressure || moved == 0 {
				break // queue full, nothing evictable, or down-chain full
			}
		}
		c.noteRound(now, t, pages, before-tier.stats.LogicalBytes, backpressure)
		if backpressure {
			return // queue full: resume next tick
		}
	}
}

// noteRound counts one demotion round out of tier t that backpressure cut
// short, and records an instant for a round that moved pages or stalled.
func (c *TierChain) noteRound(now vclock.Time, t, pages int, logical int64, backpressure bool) {
	if backpressure {
		c.demoteStall++
	}
	if c.trace != nil && (pages > 0 || backpressure) {
		c.trace.Instant(now, trace.KindBackendDemote, c.tiers[t].spec.Label(),
			"tier", t, "pages", pages, "logical_bytes", logical, "backpressure", backpressure)
	}
}

// demoteBatch migrates the oldest entries out of tier t until it is down to
// target bytes, every lower tier is full, or demoteBatchPages victims have
// gone to the uncompressed last tier, whose share goes out as one
// writeback-queue submission (the batched swap-out path). Each victim's
// entry moves at once; the codec work of reading it out of the pool and
// recompressing it below is off the fault path, but still draws from the
// tiers' streams. Returns how many pages moved and whether the SSD queue
// pushed back.
func (c *TierChain) demoteBatch(now vclock.Time, t int, target int64) (moved int, backpressure bool) {
	tier := &c.tiers[t]
	last := &c.tiers[len(c.tiers)-1]
	lastPages := 0
	var lastBytes int64
	for lastPages < demoteBatchPages && tier.stats.StoredBytes > target {
		h, ok := c.oldest(t)
		if !ok {
			break
		}
		e := c.entries[h]
		dst := c.place(t+1, e.logical, e.ratio, nil, false, true)
		if dst < 0 {
			break // every lower tier is full; stop demoting
		}
		c.release(h)
		tier.zs.decompress(0)
		if zs := c.tiers[dst].zs; zs != nil {
			zs.compress(0)
		} else {
			lastPages++
			lastBytes += e.logical
		}
		c.admit(h, dst, e.logical, c.storedSize(dst, e.logical, e.ratio), e.ratio)
		tier.demotions++
		moved++
	}
	if lastPages > 0 {
		backpressure = last.submit(now, lastPages, lastBytes) > 0
	}
	return moved, backpressure
}

// Free releases a stored page without loading it (the owner exited);
// freeing an unknown handle is a no-op.
func (c *TierChain) Free(h Handle) { c.release(h) }

// Stats reports the chain's contents and cumulative traffic, summed over
// its tiers.
func (c *TierChain) Stats() Stats {
	var sum Stats
	for i := range c.tiers {
		s := &c.tiers[i].stats
		sum.StoredPages += s.StoredPages
		sum.LogicalBytes += s.LogicalBytes
		sum.StoredBytes += s.StoredBytes
		sum.TotalWrites += s.TotalWrites
		sum.TotalReads += s.TotalReads
		sum.WrittenBytes += s.WrittenBytes
	}
	return sum
}

// WriteRate reports the SSD tier's recent device write rate in bytes/second;
// zero for a chain without one, as nothing else wears. Senpai's write
// regulation (Fig. 14) consumes this.
func (c *TierChain) WriteRate(now vclock.Time) float64 {
	if s := c.SSD(); s != nil {
		return s.dev.WriteByteRate(now)
	}
	return 0
}

// PoolBytes reports how much host DRAM the chain itself consumes for stored
// pages: the compressed tiers' footprint. The memory manager charges this
// against host capacity, so the net saving of a zswap'd page is its size
// minus its compressed size.
func (c *TierChain) PoolBytes() int64 {
	var sum int64
	for i := range c.tiers {
		if c.tiers[i].zs != nil {
			sum += c.tiers[i].stats.StoredBytes
		}
	}
	return sum
}
