package backend

import (
	"fmt"

	"tmo/internal/telemetry"
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
// swap partition, or NVM device, and forwards each operation straight to
// that tier's backend with no indirection.

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

// chainEntry locates a page inside the chain. The outer Handle held by the
// memory manager is an indirection: demotion and promotion rewrite only the
// entry, so mm handles survive tier migration.
type chainEntry struct {
	tier    int
	inner   Handle
	logical int64
	// ratio is the content's intrinsic compression ratio, remembered so
	// demotion can re-run admission at the destination tier.
	ratio float64
}

// chainTier is one instantiated tier.
type chainTier struct {
	spec TierSpec
	b    SwapBackend // the tier's substrate
	zs   *Zswap      // b for TierZswap tiers, else nil
	ssd  *SSDSwap    // b for the TierSSD tier, else nil
	// inverse maps inner pool handles back to outer handles so watermark
	// demotion can resolve LRU victims. Compressed tiers of multi-tier
	// chains only.
	inverse map[Handle]Handle

	// Registry instruments, nil until EnableTelemetry.
	telStores, telDemotions, telRefaults *telemetry.Counter
}

// TierChain is an ordered chain of offload tiers implementing SwapBackend.
// Tier 0 is the fastest; placement walks down-chain until a tier admits the
// page and has headroom, ErrFull surfaces only when the last tier is full.
type TierChain struct {
	tiers []chainTier
	// single is the only tier's backend in a one-tier chain, which every
	// operation forwards to directly; nil otherwise.
	single  SwapBackend
	entries map[Handle]chainEntry
	next    Handle

	demotions   int64 // pages moved down-chain by watermark pressure
	promotions  int64 // refault stores that landed above their cold tier
	admitSkips  int64 // tier skips due to MinCompressRatio
	demoteStall int64 // demotion rounds cut short by writeback backpressure

	// Scratch, reused across calls so the batched fault and reclaim paths
	// stay zero-alloc.
	loadScratch  [][]Handle
	storeReqs    [][]StoreReq
	storeOut     [][]StoreResult
	storeIdx     [][]int
	storeOuters  []Handle
	storePending []int64
	demoteOuters []Handle
	demoteReqs   []StoreReq
	demoteOut    []StoreResult
	oneReq       [1]StoreReq
	oneOut       [1]StoreResult

	// Registry instruments and decision log, nil until enabled.
	telPromotions, telAdmitSkips, telDemoteStall *telemetry.Counter
	trace                                        *trace.Log
}

// NewTierChain builds a chain from specs. Every tier needs a positive
// CapacityBytes; at most one uncompressed tier (SSD or NVM) is allowed and
// it must be last. The SSD tier is carved from dev (which the filesystem may
// share). seed derives each tier's latency-sampling stream.
func NewTierChain(specs []TierSpec, dev *SSDDevice, seed uint64) *TierChain {
	if len(specs) == 0 {
		panic("backend: tier chain needs at least one tier")
	}
	c := &TierChain{}
	for i, ts := range specs {
		ts.normalize()
		if ts.CapacityBytes <= 0 {
			panic(fmt.Sprintf("backend: chain tier %d (%s) needs a positive capacity", i, ts.Label()))
		}
		if ts.Kind != TierZswap && i != len(specs)-1 {
			panic(fmt.Sprintf("backend: chain %s tier must be last (got position %d)", ts.Label(), i))
		}
		tierSeed := seed + uint64(i)*0x9e3779b9
		t := chainTier{spec: ts}
		switch ts.Kind {
		case TierZswap:
			t.zs = NewZswap(ts.Codec, ts.Alloc, ts.CapacityBytes, tierSeed)
			t.b = t.zs
		case TierSSD:
			if dev == nil {
				panic("backend: chain SSD tier needs a device")
			}
			t.ssd = NewSSDSwap(dev, ts.CapacityBytes)
			t.b = t.ssd
		case TierNVM:
			nvm := SpecNVMOptane
			nvm.CapacityBytes = ts.CapacityBytes
			t.b = NewNVM(nvm, tierSeed)
		default:
			panic(fmt.Sprintf("backend: unknown tier kind %d", ts.Kind))
		}
		c.tiers = append(c.tiers, t)
	}
	if len(c.tiers) == 1 {
		c.single = c.tiers[0].b
		return c
	}
	c.entries = make(map[Handle]chainEntry)
	for i := range c.tiers {
		if c.tiers[i].zs != nil {
			c.tiers[i].inverse = make(map[Handle]Handle)
		}
	}
	c.loadScratch = make([][]Handle, len(specs))
	c.storeReqs = make([][]StoreReq, len(specs))
	c.storeOut = make([][]StoreResult, len(specs))
	c.storeIdx = make([][]int, len(specs))
	c.storePending = make([]int64, len(specs))
	return c
}

// NumTiers returns the chain length.
func (c *TierChain) NumTiers() int { return len(c.tiers) }

// TierSpecs returns a copy of the normalized tier layout.
func (c *TierChain) TierSpecs() []TierSpec {
	out := make([]TierSpec, len(c.tiers))
	for i, t := range c.tiers {
		out[i] = t.spec
	}
	return out
}

// TierStats reports tier i's contents and traffic.
func (c *TierChain) TierStats(i int) Stats { return c.tiers[i].b.Stats() }

// Demotions returns how many pages watermark pressure has moved down-chain.
func (c *TierChain) Demotions() int64 { return c.demotions }

// Promotions returns how many refaulting pages landed in a faster tier than
// a cold store would have reached.
func (c *TierChain) Promotions() int64 { return c.promotions }

// AdmitSkips returns how many tier placements skipped a compressed tier
// because the content failed its MinCompressRatio admission threshold.
func (c *TierChain) AdmitSkips() int64 { return c.admitSkips }

// DemoteBackpressure returns how many demotion rounds were cut short by the
// SSD writeback queue's backpressure.
func (c *TierChain) DemoteBackpressure() int64 { return c.demoteStall }

// SSD returns the chain's SSD tier, if any.
func (c *TierChain) SSD() *SSDSwap {
	last := &c.tiers[len(c.tiers)-1]
	return last.ssd
}

// CapacityBytes returns the chain's total capacity across tiers.
func (c *TierChain) CapacityBytes() int64 {
	var sum int64
	for _, t := range c.tiers {
		sum += t.spec.CapacityBytes
	}
	return sum
}

// ConfigureWriteback replaces the SSD tier's async writeback-queue limits;
// a no-op for chains without an SSD tier.
func (c *TierChain) ConfigureWriteback(cfg WritebackConfig) {
	if s := c.SSD(); s != nil {
		s.ConfigureWriteback(cfg)
	}
}

// admissible reports whether tier t admits content with the given intrinsic
// compression ratio.
func (c *TierChain) admissible(t int, ratio float64) bool {
	tier := &c.tiers[t]
	if tier.zs == nil {
		return true
	}
	return ratio*tier.spec.Codec.RatioFactor >= tier.spec.MinCompressRatio
}

// storedSize returns the physical bytes one page would consume in tier t —
// exactly the size the tier's own admission check will use.
func (c *TierChain) storedSize(t int, pageBytes int64, ratio float64) int64 {
	tier := &c.tiers[t]
	if tier.zs == nil {
		return pageBytes
	}
	return tier.spec.Alloc.StoredSize(pageBytes, ratio*tier.spec.Codec.RatioFactor)
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
	occ := tier.b.Stats().StoredBytes + pending
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
				if c.telAdmitSkips != nil {
					c.telAdmitSkips.Inc()
				}
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
			c.promotions++
			if c.telPromotions != nil {
				c.telPromotions.Inc()
			}
			if tier := &c.tiers[t]; tier.telRefaults != nil {
				tier.telRefaults.Inc()
			}
		}
	}
	return t
}

// register records a stored page under a fresh (or pre-allocated) outer
// handle and keeps the tier's inverse map in sync.
func (c *TierChain) register(outer Handle, t int, inner Handle, logical int64, ratio float64) {
	c.entries[outer] = chainEntry{tier: t, inner: inner, logical: logical, ratio: ratio}
	if tier := &c.tiers[t]; tier.zs != nil {
		tier.inverse[inner] = outer
	}
	if tier := &c.tiers[t]; tier.telStores != nil {
		tier.telStores.Inc()
	}
}

// Store implements SwapBackend, a one-page batch (scratch-backed so the
// single-page reclaim path stays allocation-free).
func (c *TierChain) Store(now vclock.Time, pageBytes int64, compressRatio float64) (StoreResult, error) {
	if c.single != nil {
		return c.single.Store(now, pageBytes, compressRatio)
	}
	c.oneReq[0] = StoreReq{PageBytes: pageBytes, CompressRatio: compressRatio}
	if _, err := c.StoreBatch(now, c.oneReq[:], c.oneOut[:]); err != nil {
		return StoreResult{}, err
	}
	return c.oneOut[0], nil
}

// StoreBatch implements SwapBackend. One pass assigns every page its
// destination tier using exact occupancy projections (the same formulas the
// tiers' own admission checks use), then each tier's share goes out as one
// sub-batch in tier order so per-submission costs amortise per tier. A
// batch stores a prefix: the first page with no destination anywhere in the
// chain defines n and ErrFull is returned.
func (c *TierChain) StoreBatch(now vclock.Time, reqs []StoreReq, out []StoreResult) (int, error) {
	if c.single != nil {
		return c.single.StoreBatch(now, reqs, out)
	}
	for t := range c.tiers {
		c.storeReqs[t] = c.storeReqs[t][:0]
		c.storeIdx[t] = c.storeIdx[t][:0]
		c.storePending[t] = 0
	}
	c.storeOuters = c.storeOuters[:0]

	n := len(reqs)
	for i, req := range reqs {
		t := c.placeFresh(req.PageBytes, req.CompressRatio, c.storePending, req.Refault)
		if t < 0 {
			n = i
			break
		}
		c.storePending[t] += c.storedSize(t, req.PageBytes, req.CompressRatio)
		c.storeReqs[t] = append(c.storeReqs[t], req)
		c.storeIdx[t] = append(c.storeIdx[t], i)
		outer := c.next
		c.next++
		c.storeOuters = append(c.storeOuters, outer)
	}

	for t := range c.tiers {
		sub := c.storeReqs[t]
		if len(sub) == 0 {
			continue
		}
		if cap(c.storeOut[t]) < len(sub) {
			c.storeOut[t] = make([]StoreResult, len(sub))
		}
		subOut := c.storeOut[t][:len(sub)]
		m, err := c.tiers[t].b.StoreBatch(now, sub, subOut)
		if err != nil || m != len(sub) {
			// The projection uses the tiers' exact admission formulas, so a
			// mismatch means the bookkeeping is out of sync.
			panic(fmt.Sprintf("backend: chain tier %d rejected %d/%d projected stores: %v",
				t, len(sub)-m, len(sub), err))
		}
		for j, origIdx := range c.storeIdx[t] {
			res := subOut[j]
			inner := res.Handle
			outer := c.storeOuters[origIdx]
			c.register(outer, t, inner, sub[j].PageBytes, sub[j].CompressRatio)
			res.Handle = outer
			out[origIdx] = res
		}
	}

	if n < len(reqs) {
		return n, ErrFull
	}
	return n, nil
}

// Load implements SwapBackend.
func (c *TierChain) Load(now vclock.Time, h Handle) LoadResult {
	if c.single != nil {
		return c.single.Load(now, h)
	}
	e, ok := c.entries[h]
	if !ok {
		panic(fmt.Sprintf("backend: load of unknown chain handle %d", h))
	}
	delete(c.entries, h)
	tier := &c.tiers[e.tier]
	delete(tier.inverse, e.inner)
	return tier.b.Load(now, e.inner)
}

// LoadBatch implements SwapBackend: the cluster is partitioned by tier and
// each tier serves its share as one submission; the latencies sum — fast
// tiers decompress while the SSD seeks once for all its pages.
func (c *TierChain) LoadBatch(now vclock.Time, hs []Handle) BatchLoadResult {
	if c.single != nil {
		return c.single.LoadBatch(now, hs)
	}
	for t := range c.tiers {
		c.loadScratch[t] = c.loadScratch[t][:0]
	}
	for _, h := range hs {
		e, ok := c.entries[h]
		if !ok {
			panic(fmt.Sprintf("backend: load of unknown chain handle %d", h))
		}
		delete(c.entries, h)
		delete(c.tiers[e.tier].inverse, e.inner)
		c.loadScratch[e.tier] = append(c.loadScratch[e.tier], e.inner)
	}
	var res BatchLoadResult
	for t := range c.tiers {
		part := c.loadScratch[t]
		if len(part) == 0 {
			continue
		}
		r := c.tiers[t].b.LoadBatch(now, part)
		res.Latency += r.Latency
		res.BlockIO = res.BlockIO || r.BlockIO
	}
	return res
}

// DrainWriteback implements SwapBackend: the SSD tier issues queued
// swap-out writes due by now, then the chain manager runs one watermark
// pass, demoting LRU entries out of any tier above its HighWater mark.
func (c *TierChain) DrainWriteback(now vclock.Time) {
	if c.single != nil {
		c.single.DrainWriteback(now)
		return
	}
	if s := c.SSD(); s != nil {
		s.DrainWriteback(now)
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
	for t := 0; t < len(c.tiers); t++ {
		tier := &c.tiers[t]
		if tier.zs == nil {
			continue // the SSD tier has nowhere further to demote
		}
		cap := tier.spec.CapacityBytes
		high := int64(float64(cap) * tier.spec.HighWater)
		if tier.zs.Stats().StoredBytes <= high {
			continue
		}
		target := int64(float64(cap) * tier.spec.LowWater)
		for tier.zs.Stats().StoredBytes > target {
			moved, backpressure := c.demoteBatch(now, t)
			if backpressure {
				c.demoteStall++
				if c.telDemoteStall != nil {
					c.telDemoteStall.Inc()
				}
				return // queue full: resume next tick
			}
			if moved == 0 {
				break // nothing evictable or down-chain full
			}
		}
	}
}

// demoteBatch migrates up to demoteBatchPages LRU victims out of tier t,
// grouping the SSD-bound share into one writeback-queue submission (the PR 8
// batched swap-out path). Returns how many pages moved and whether the SSD
// queue pushed back.
func (c *TierChain) demoteBatch(now vclock.Time, t int) (moved int, backpressure bool) {
	tier := &c.tiers[t]
	target := int64(float64(tier.spec.CapacityBytes) * tier.spec.LowWater)
	c.demoteOuters = c.demoteOuters[:0]
	c.demoteReqs = c.demoteReqs[:0]
	// SSD-bound victims defer their store to one batched submission below,
	// so their bytes must be projected onto the tier until it lands.
	for i := range c.storePending {
		c.storePending[i] = 0
	}

	for len(c.demoteOuters) < demoteBatchPages && tier.zs.Stats().StoredBytes > target {
		inner, ok := tier.zs.OldestHandle()
		if !ok {
			break
		}
		outer, ok := tier.inverse[inner]
		if !ok {
			panic("backend: chain inverse map out of sync")
		}
		e := c.entries[outer]
		dst := c.place(t+1, e.logical, e.ratio, c.storePending, false, true)
		if dst < 0 {
			break // every lower tier is full; stop demoting
		}
		logical, _, ok := tier.zs.Writeback(inner)
		if !ok {
			panic("backend: chain writeback of vanished entry")
		}
		delete(tier.inverse, inner)

		if c.tiers[dst].zs == nil {
			// Victims bound for the uncompressed last tier batch into one
			// submission below; the ratio is irrelevant there.
			c.storePending[dst] += logical
			c.demoteOuters = append(c.demoteOuters, outer)
			c.demoteReqs = append(c.demoteReqs, StoreReq{PageBytes: logical, CompressRatio: e.ratio})
			continue
		}
		res, err := c.tiers[dst].zs.Store(now, logical, e.ratio)
		if err != nil {
			panic("backend: chain demotion target rejected a projected store: " + err.Error())
		}
		c.register(outer, dst, res.Handle, logical, e.ratio)
		c.noteDemotion(now, tier, t, dst, logical)
		moved++
	}

	if len(c.demoteReqs) > 0 {
		last := len(c.tiers) - 1
		if cap(c.demoteOut) < len(c.demoteReqs) {
			c.demoteOut = make([]StoreResult, len(c.demoteReqs))
		}
		subOut := c.demoteOut[:len(c.demoteReqs)]
		m, err := c.tiers[last].b.StoreBatch(now, c.demoteReqs, subOut)
		if err != nil || m != len(c.demoteReqs) {
			panic(fmt.Sprintf("backend: chain %s tier rejected %d/%d projected demotions: %v",
				c.tiers[last].spec.Label(), len(c.demoteReqs)-m, len(c.demoteReqs), err))
		}
		for j, outer := range c.demoteOuters {
			c.register(outer, last, subOut[j].Handle, c.demoteReqs[j].PageBytes, c.demoteReqs[j].CompressRatio)
			c.noteDemotion(now, tier, t, last, c.demoteReqs[j].PageBytes)
			moved++
		}
		// A nonzero latency on the first page is the writeback queue's
		// backpressure stall: the queue was full when the submission pushed.
		backpressure = subOut[0].Latency > 0
	}
	return moved, backpressure
}

// noteDemotion updates counters and the decision log for one migrated page.
func (c *TierChain) noteDemotion(now vclock.Time, src *chainTier, from, to int, logical int64) {
	c.demotions++
	if src.telDemotions != nil {
		src.telDemotions.Inc()
	}
	if c.trace != nil {
		c.trace.Emit(now, trace.KindBackendWriteback, src.spec.Label(),
			"demoted %d B LRU entry tier %d -> %d (%s)", logical, from, to, c.tiers[to].spec.Label())
	}
}

// Free implements SwapBackend.
func (c *TierChain) Free(h Handle) {
	if c.single != nil {
		c.single.Free(h)
		return
	}
	e, ok := c.entries[h]
	if !ok {
		return
	}
	delete(c.entries, h)
	tier := &c.tiers[e.tier]
	delete(tier.inverse, e.inner)
	tier.b.Free(e.inner)
}

// Stats implements SwapBackend, merging every tier.
func (c *TierChain) Stats() Stats {
	var sum Stats
	for i := range c.tiers {
		s := c.tiers[i].b.Stats()
		sum.StoredPages += s.StoredPages
		sum.LogicalBytes += s.LogicalBytes
		sum.StoredBytes += s.StoredBytes
		sum.TotalWrites += s.TotalWrites
		sum.TotalReads += s.TotalReads
		sum.WrittenBytes += s.WrittenBytes
	}
	return sum
}

// WriteRate implements SwapBackend: only the SSD tier wears.
func (c *TierChain) WriteRate(now vclock.Time) float64 {
	if s := c.SSD(); s != nil {
		return s.WriteRate(now)
	}
	return 0
}

// PoolBytes implements SwapBackend: the compressed tiers' DRAM footprint.
func (c *TierChain) PoolBytes() int64 {
	var sum int64
	for i := range c.tiers {
		sum += c.tiers[i].b.PoolBytes()
	}
	return sum
}
