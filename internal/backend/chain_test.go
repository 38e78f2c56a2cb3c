package backend

import (
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"tmo/internal/vclock"
)

// driftChain builds the canonical two-tier test chain: a zstd dense tier
// with the paper's 1.5x admission threshold over an SSD tier far larger
// than any test fills.
func driftChain(poolBytes int64) *TierChain {
	specs := []TierSpec{
		{Kind: TierZswap, Codec: CodecZstd, CapacityBytes: poolBytes, MinCompressRatio: 1.5},
		{Kind: TierSSD, CapacityBytes: 1 << 30},
	}
	return NewTierChain(specs, NewSSDDevice(DeviceCatalog[2], 31), 31)
}

// TestChainRetiersDriftedPages: the compress-drift regression. Pages whose
// content stops compressing (chaos "compress x0.3") must be re-tiered on
// their next store instead of stranding in the dense tier — admission runs
// per store, so the refault round-trip lands them on SSD. The reverse drift
// pulls them back up.
func TestChainRetiersDriftedPages(t *testing.T) {
	c := driftChain(64 * pageSize)
	now := vclock.Time(vclock.Second)

	const pages = 20
	reqs := make([]StoreReq, pages)
	out := make([]StoreResult, pages)
	for i := range reqs {
		reqs[i] = StoreReq{PageBytes: pageSize, CompressRatio: 3.0}
	}
	if n, err := c.StoreBatch(now, reqs, out); err != nil || n != pages {
		t.Fatalf("StoreBatch = %d, %v", n, err)
	}
	if st := c.TierStats(0); st.StoredPages != pages {
		t.Fatalf("compressible pages landed outside the dense tier: %+v", st)
	}

	// The content drifts incompressible. The pages refault (swap-in) and are
	// reclaimed again at their new ratio; the chain must route them past the
	// dense tier rather than wasting pool DRAM.
	handles := make([]Handle, pages)
	for i := range out {
		handles[i] = out[i].Handle
	}
	c.LoadBatch(now, handles)
	skipsBefore := c.AdmitSkips()
	for i := range reqs {
		reqs[i] = StoreReq{PageBytes: pageSize, CompressRatio: 3.0 * 0.3, Refault: true}
	}
	if n, err := c.StoreBatch(now, reqs, out); err != nil || n != pages {
		t.Fatalf("drifted StoreBatch = %d, %v", n, err)
	}
	if st := c.TierStats(0); st.StoredPages != 0 {
		t.Fatalf("%d drifted pages stranded in the dense tier", st.StoredPages)
	}
	if st := c.TierStats(1); st.StoredPages != pages {
		t.Fatalf("SSD tier holds %d pages, want %d", st.StoredPages, pages)
	}
	if c.AdmitSkips() <= skipsBefore {
		t.Fatalf("admission skips did not grow: %d", c.AdmitSkips())
	}

	// Drift back: the same round-trip at the original ratio re-tiers the
	// pages up into the dense tier.
	for i := range out {
		handles[i] = out[i].Handle
	}
	c.LoadBatch(now, handles)
	for i := range reqs {
		reqs[i] = StoreReq{PageBytes: pageSize, CompressRatio: 3.0, Refault: true}
	}
	if n, err := c.StoreBatch(now, reqs, out); err != nil || n != pages {
		t.Fatalf("recovered StoreBatch = %d, %v", n, err)
	}
	if st := c.TierStats(0); st.StoredPages != pages {
		t.Fatalf("recovered pages did not return to the dense tier: %+v", st)
	}
}

// TestChainSerialBatchEquivalence: placement is identical whether pages
// arrive one Store at a time or as one StoreBatch — including across tier
// boundaries, where the batch's occupancy projection must agree with the
// serial path's committed state.
func TestChainSerialBatchEquivalence(t *testing.T) {
	build := func() *TierChain {
		specs := []TierSpec{
			{Kind: TierZswap, Codec: CodecLz4, CapacityBytes: 8 * pageSize, MinCompressRatio: 2.0},
			{Kind: TierZswap, Codec: CodecZstd, CapacityBytes: 48 * pageSize, MinCompressRatio: 1.5},
			{Kind: TierSSD, CapacityBytes: 1 << 30},
		}
		return NewTierChain(specs, NewSSDDevice(DeviceCatalog[2], 7), 7)
	}
	batch, serial := build(), build()
	now := vclock.Time(vclock.Second)

	// Ratios cycle fast/dense/flash, with enough fast-tier traffic to spill
	// over its watermark mid-sequence so later stores cross a tier boundary.
	const pages = 60
	ratios := []float64{3.2, 1.7, 1.05}
	reqs := make([]StoreReq, pages)
	for i := range reqs {
		reqs[i] = StoreReq{PageBytes: pageSize, CompressRatio: ratios[i%len(ratios)]}
	}

	bOut := make([]StoreResult, pages)
	if n, err := batch.StoreBatch(now, reqs, bOut); err != nil || n != pages {
		t.Fatalf("StoreBatch = %d, %v", n, err)
	}
	sOut := make([]StoreResult, pages)
	for i, req := range reqs {
		res, err := serial.Store(now, req.PageBytes, req.CompressRatio)
		if err != nil {
			t.Fatalf("serial store %d: %v", i, err)
		}
		sOut[i] = res
	}

	for tier := 0; tier < batch.NumTiers(); tier++ {
		b, s := batch.TierStats(tier), serial.TierStats(tier)
		if b.StoredPages != s.StoredPages || b.StoredBytes != s.StoredBytes || b.LogicalBytes != s.LogicalBytes {
			t.Errorf("tier %d diverged: batch {pages %d, stored %d, logical %d} vs serial {pages %d, stored %d, logical %d}",
				tier, b.StoredPages, b.StoredBytes, b.LogicalBytes, s.StoredPages, s.StoredBytes, s.LogicalBytes)
		}
	}
	if got := batch.TierStats(0).StoredPages; got == 0 || got == pages {
		t.Fatalf("sequence did not span tiers (fast tier holds %d of %d)", got, pages)
	}
	for i := range bOut {
		if bOut[i].StoredBytes != sOut[i].StoredBytes {
			t.Fatalf("page %d stored bytes diverged: %d vs %d", i, bOut[i].StoredBytes, sOut[i].StoredBytes)
		}
	}

	// Draining both chains page-for-page empties them identically.
	hs := make([]Handle, pages)
	for i := range bOut {
		hs[i] = bOut[i].Handle
	}
	batch.LoadBatch(now, hs)
	for i := range sOut {
		serial.Load(now, sOut[i].Handle)
	}
	for tier := 0; tier < batch.NumTiers(); tier++ {
		if b, s := batch.TierStats(tier), serial.TierStats(tier); b.StoredPages != 0 || s.StoredPages != 0 {
			t.Fatalf("tier %d not drained: batch %d, serial %d", tier, b.StoredPages, s.StoredPages)
		}
	}
}

// TestChainErrFullLastTier: a bounded chain surfaces ErrFull only once the
// last tier is out of room, and a batch that hits the wall stores a prefix.
func TestChainErrFullLastTier(t *testing.T) {
	specs := []TierSpec{
		{Kind: TierZswap, Codec: CodecZstd, CapacityBytes: 8 * pageSize},
		{Kind: TierSSD, CapacityBytes: 4 * pageSize},
	}
	c := NewTierChain(specs, NewSSDDevice(DeviceCatalog[2], 13), 13)
	now := vclock.Time(vclock.Second)

	// Refault stores fill every tier to full capacity (cold stores stop at
	// the fast tier's HighWater band).
	reqs := make([]StoreReq, 100)
	for i := range reqs {
		reqs[i] = StoreReq{PageBytes: pageSize, CompressRatio: 1.0, Refault: true}
	}
	out := make([]StoreResult, len(reqs))
	n, err := c.StoreBatch(now, reqs, out)
	if !errors.Is(err, ErrFull) {
		t.Fatalf("overfull StoreBatch err = %v, want ErrFull", err)
	}
	if n == 0 || n >= len(reqs) {
		t.Fatalf("prefix = %d of %d", n, len(reqs))
	}
	if last := c.TierStats(c.NumTiers() - 1); last.StoredPages == 0 {
		t.Fatalf("ErrFull before the last tier took a page")
	}
	if _, err := c.Store(now, pageSize, 1.0); !errors.Is(err, ErrFull) {
		t.Fatalf("single store on a full chain err = %v, want ErrFull", err)
	}

	// The prefix is live: its handles load back, and freeing one page makes
	// room for exactly one more.
	c.Load(now, out[0].Handle)
	if _, err := c.Store(now, pageSize, 1.0); err != nil {
		t.Fatalf("store after load: %v", err)
	}
}

// TestChainWatermarkDemotion: sustained cold inflow pushes the fast tier
// over HighWater; the chain manager demotes LRU entries down-chain until the
// tier is back inside its band, and every migrated page stays loadable.
func TestChainWatermarkDemotion(t *testing.T) {
	const poolBytes = 100 * pageSize
	c := driftChain(poolBytes)
	now := vclock.Time(vclock.Second)

	var handles []Handle
	for i := 0; i < 400; i++ {
		res, err := c.Store(now, pageSize, 2.0)
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		handles = append(handles, res.Handle)
		if i%8 == 7 {
			now += vclock.Time(vclock.Second)
			c.DrainWriteback(now)
		}
	}
	now += vclock.Time(vclock.Second)
	c.DrainWriteback(now)

	if c.Demotions() == 0 {
		t.Fatalf("no demotions despite 4x oversubscription of the fast tier")
	}
	high := int64(float64(poolBytes) * DefaultHighWater)
	if st := c.TierStats(0); st.StoredBytes > high {
		t.Fatalf("fast tier above HighWater after manage: %d > %d", st.StoredBytes, high)
	}
	if st := c.TierStats(1); st.StoredPages == 0 {
		t.Fatalf("nothing demoted to SSD")
	}

	// Handles survive migration: the outer handle is an indirection, so
	// loading everything back drains the whole chain.
	c.LoadBatch(now, handles)
	if st := c.Stats(); st.StoredPages != 0 || st.LogicalBytes != 0 {
		t.Fatalf("chain not empty after loading every handle: %+v", st)
	}
}

// TestChainDemotionBackpressure: demotion into the SSD tier rides the async
// writeback queue. When the queue is saturated the demotion round ends early
// (counted by DemoteBackpressure) instead of piling more migration traffic
// onto a device that is already behind — and resumes on later ticks.
func TestChainDemotionBackpressure(t *testing.T) {
	const poolBytes = 80 * pageSize
	c := driftChain(poolBytes)
	c.ConfigureWriteback(WritebackConfig{Depth: 1, MaxIOPS: 0.001}) // one drain per ~1000s
	now := vclock.Time(vclock.Second)

	// Occupy the queue's only slot with an incompressible store, then pack
	// the fast tier to capacity with refault stores.
	if _, err := c.Store(now, pageSize, 1.0); err != nil {
		t.Fatalf("ssd store: %v", err)
	}
	reqs := make([]StoreReq, 150)
	out := make([]StoreResult, len(reqs))
	for i := range reqs {
		reqs[i] = StoreReq{PageBytes: pageSize, CompressRatio: 2.0, Refault: true}
	}
	if n, err := c.StoreBatch(now, reqs, out); err != nil || n != len(reqs) {
		t.Fatalf("fill StoreBatch = %d, %v", n, err)
	}
	high := int64(float64(poolBytes) * DefaultHighWater)
	if st := c.TierStats(0); st.StoredBytes <= high {
		t.Fatalf("fast tier not over HighWater: %d <= %d", st.StoredBytes, high)
	}

	now += vclock.Time(vclock.Second)
	c.DrainWriteback(now)
	if c.DemoteBackpressure() == 0 {
		t.Fatalf("saturated queue produced no demotion backpressure")
	}

	// The stall is transient: once the queue drains, later ticks finish the
	// job and the tier settles back inside its band.
	for i := 0; i < 50 && c.TierStats(0).StoredBytes > high; i++ {
		now += vclock.Time(2000 * vclock.Second)
		c.DrainWriteback(now)
	}
	if st := c.TierStats(0); st.StoredBytes > high {
		t.Fatalf("demotion never recovered from backpressure: %d > %d", st.StoredBytes, high)
	}
}

// TestChainConcurrentHosts: one chain per goroutine, driven in parallel —
// the witness for the package's data-race gate (a fleet holds thousands of
// independent chains on shared codec/device catalogs).
func TestChainConcurrentHosts(t *testing.T) {
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for g := 0; g < len(errs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := driftChain(32 * pageSize)
			now := vclock.Time(vclock.Second)
			var handles []Handle
			for i := 0; i < 200; i++ {
				ratio := 2.5
				if i%3 == 0 {
					ratio = 1.1
				}
				res, err := c.Store(now, pageSize, ratio)
				if err != nil {
					errs[g] = err
					return
				}
				handles = append(handles, res.Handle)
				if i%16 == 15 {
					now += vclock.Time(vclock.Second)
					c.DrainWriteback(now)
					c.LoadBatch(now, handles[:4])
					handles = handles[4:]
				}
			}
			c.LoadBatch(now, handles)
			if st := c.Stats(); st.StoredPages != 0 {
				errs[g] = errors.New("chain not drained")
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("host %d: %v", g, err)
		}
	}
}

// TestChainSingleTierForwards: a one-tier chain is its tier's backend. The
// same seeded op sequence — stores, batches that overrun a small tier,
// loads, frees, drains — driven into the chain and into the bare backend
// must produce identical results, handles, ErrFull prefixes and Stats.
func TestChainSingleTierForwards(t *testing.T) {
	const capacity = 48 * pageSize
	const seed = 17
	nvm := SpecNVMOptane
	nvm.CapacityBytes = capacity
	cases := []struct {
		name string
		spec TierSpec
		bare func() SwapBackend
	}{
		{"zstd", TierSpec{Kind: TierZswap, Codec: CodecZstd, CapacityBytes: capacity},
			func() SwapBackend { return NewZswap(CodecZstd, AllocZsmalloc, capacity, seed) }},
		{"lz4", TierSpec{Kind: TierZswap, Codec: CodecLz4, CapacityBytes: capacity},
			func() SwapBackend { return NewZswap(CodecLz4, AllocZsmalloc, capacity, seed) }},
		{"ssd", TierSpec{Kind: TierSSD, CapacityBytes: capacity},
			func() SwapBackend { return NewSSDSwap(NewSSDDevice(DeviceCatalog[2], seed), capacity) }},
		{"nvm", TierSpec{Kind: TierNVM, CapacityBytes: capacity},
			func() SwapBackend { return NewNVM(nvm, seed) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chain := NewTierChain([]TierSpec{tc.spec}, NewSSDDevice(DeviceCatalog[2], seed), seed)
			bare := tc.bare()
			rng := rand.New(rand.NewPCG(seed, uint64(len(tc.name))))
			now := vclock.Time(vclock.Second)
			var live []Handle
			fulls := 0
			for op := 0; op < 2000; op++ {
				now += vclock.Time(rng.IntN(int(50 * vclock.Millisecond)))
				switch k := rng.IntN(10); {
				case k < 3:
					ratio := 1 + 3*rng.Float64()
					a, errA := chain.Store(now, pageSize, ratio)
					b, errB := bare.Store(now, pageSize, ratio)
					if a != b || errA != errB {
						t.Fatalf("op %d Store: chain %+v %v, bare %+v %v", op, a, errA, b, errB)
					}
					if errA == nil {
						live = append(live, a.Handle)
					} else {
						fulls++
					}
				case k < 5:
					reqs := make([]StoreReq, 1+rng.IntN(16))
					for i := range reqs {
						reqs[i] = StoreReq{PageBytes: pageSize, CompressRatio: 1 + 3*rng.Float64(), Refault: rng.IntN(2) == 0}
					}
					outA, outB := make([]StoreResult, len(reqs)), make([]StoreResult, len(reqs))
					nA, errA := chain.StoreBatch(now, reqs, outA)
					nB, errB := bare.StoreBatch(now, reqs, outB)
					if nA != nB || errA != errB {
						t.Fatalf("op %d StoreBatch: chain %d %v, bare %d %v", op, nA, errA, nB, errB)
					}
					for i := 0; i < nA; i++ {
						if outA[i] != outB[i] {
							t.Fatalf("op %d StoreBatch page %d: chain %+v, bare %+v", op, i, outA[i], outB[i])
						}
						live = append(live, outA[i].Handle)
					}
					if errors.Is(errA, ErrFull) {
						fulls++
					}
				case k < 7 && len(live) > 0:
					i := rng.IntN(len(live))
					h := live[i]
					live = append(live[:i], live[i+1:]...)
					if a, b := chain.Load(now, h), bare.Load(now, h); a != b {
						t.Fatalf("op %d Load: chain %+v, bare %+v", op, a, b)
					}
				case k < 8 && len(live) > 0:
					n := 1 + rng.IntN(min(8, len(live)))
					hs := append([]Handle(nil), live[:n]...)
					live = live[n:]
					if a, b := chain.LoadBatch(now, hs), bare.LoadBatch(now, hs); a != b {
						t.Fatalf("op %d LoadBatch: chain %+v, bare %+v", op, a, b)
					}
				case k < 9 && len(live) > 0:
					h := live[len(live)-1]
					live = live[:len(live)-1]
					chain.Free(h)
					bare.Free(h)
				default:
					chain.DrainWriteback(now)
					bare.DrainWriteback(now)
				}
				if a, b := chain.Stats(), bare.Stats(); a != b {
					t.Fatalf("op %d Stats: chain %+v, bare %+v", op, a, b)
				}
				if a, b := chain.PoolBytes(), bare.PoolBytes(); a != b {
					t.Fatalf("op %d PoolBytes: chain %d, bare %d", op, a, b)
				}
				if a, b := chain.WriteRate(now), bare.WriteRate(now); a != b {
					t.Fatalf("op %d WriteRate: chain %v, bare %v", op, a, b)
				}
			}
			if fulls == 0 {
				t.Fatalf("sequence never filled the %d-byte tier", capacity)
			}
		})
	}
}

// TestChainRejectsBadLayouts: every tier must be sized (the chain has no
// unbounded tier — callers size a bare SSD tier themselves), and an
// uncompressed tier can only be the last one.
func TestChainRejectsBadLayouts(t *testing.T) {
	dev := NewSSDDevice(DeviceCatalog[2], 5)
	for name, specs := range map[string][]TierSpec{
		"empty":        nil,
		"unsized pool": {{Kind: TierZswap, Codec: CodecZstd}},
		"unsized ssd":  {{Kind: TierZswap, Codec: CodecZstd, CapacityBytes: 1 << 20}, {Kind: TierSSD}},
		"nvm not last": {{Kind: TierNVM, CapacityBytes: 1 << 20}, {Kind: TierZswap, Codec: CodecZstd, CapacityBytes: 1 << 20}},
		"ssd not last": {{Kind: TierSSD, CapacityBytes: 1 << 20}, {Kind: TierNVM, CapacityBytes: 1 << 20}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: NewTierChain accepted %+v", name, specs)
				}
			}()
			NewTierChain(specs, dev, 5)
		}()
	}
}

// TestChainDemotesIntoNVM: an NVM last tier takes watermark demotions the
// way an SSD tier does, minus the writeback queue, and costs no host DRAM.
func TestChainDemotesIntoNVM(t *testing.T) {
	const poolBytes = 64 * pageSize
	c := NewTierChain([]TierSpec{
		{Kind: TierZswap, Codec: CodecZstd, CapacityBytes: poolBytes},
		{Kind: TierNVM, CapacityBytes: 1 << 30},
	}, nil, 9)
	now := vclock.Time(vclock.Second)
	var handles []Handle
	for i := 0; i < 300; i++ {
		res, err := c.Store(now, pageSize, 2.0)
		if err != nil {
			t.Fatalf("store %d: %v", i, err)
		}
		handles = append(handles, res.Handle)
		if i%8 == 7 {
			now += vclock.Time(vclock.Second)
			c.DrainWriteback(now)
		}
	}
	if c.Demotions() == 0 || c.TierStats(1).StoredPages == 0 {
		t.Fatalf("nothing demoted into NVM: demotions %d, nvm %+v", c.Demotions(), c.TierStats(1))
	}
	if c.PoolBytes() != c.TierStats(0).StoredBytes {
		t.Fatalf("pool bytes %d != compressed tier bytes %d", c.PoolBytes(), c.TierStats(0).StoredBytes)
	}
	if r := c.LoadBatch(now, handles); r.BlockIO {
		t.Fatalf("NVM/zswap loads reported block IO")
	}
	if st := c.Stats(); st.StoredPages != 0 {
		t.Fatalf("chain not empty after loading every handle: %+v", st)
	}
}
