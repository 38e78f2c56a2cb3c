package backend

import (
	"slices"
	"testing"

	"tmo/internal/vclock"
)

// fuzzRatios are the content compressibilities a fuzzed store draws from:
// incompressible pages that skip both compressed tiers, pages that clear
// only zstd's 1.5x threshold, and pages compressible enough for lz4's 2x.
var fuzzRatios = [8]float64{1.0, 1.1, 1.4, 1.6, 2.0, 2.6, 3.5, 5.0}

// fuzzChains builds the chains every fuzzed op sequence drives. The first
// is a tiny lz4 → zstd → SSD chain: a handful of pages fill any tier, and
// its one-slot writeback queue drains one submission per second, so ErrFull
// prefixes, admission skips, demotions and writeback backpressure all occur
// within a short op sequence. The other two are the one-tier layouts every
// non-tiered host runs: a zstd pool and an SSD partition, as small.
func fuzzChains() []*TierChain {
	dev := func() *SSDDevice { return NewSSDDevice(withWriteIOPS(DeviceCatalog[2], 1), 5) }
	const wbDepth = 1
	return []*TierChain{
		NewTierChain([]TierSpec{
			{Kind: TierZswap, Codec: CodecLz4, CapacityBytes: 4 * pageSize, MinCompressRatio: 2.0},
			{Kind: TierZswap, Codec: CodecZstd, CapacityBytes: 6 * pageSize, MinCompressRatio: 1.5},
			{Kind: TierSSD, CapacityBytes: 12 * pageSize},
		}, dev(), wbDepth, 5),
		NewTierChain([]TierSpec{{Kind: TierZswap, Codec: CodecZstd, CapacityBytes: 6 * pageSize}}, nil, wbDepth, 5),
		NewTierChain([]TierSpec{{Kind: TierSSD, CapacityBytes: 12 * pageSize}}, dev(), wbDepth, 5),
	}
}

// Fuzz op codes, the low two bits of an op byte.
const (
	fuzzStore = iota // n: pages-1 (mod 16), then one page byte per page
	fuzzLoad         // n: pages-1 (mod 8), then the start index into the live handles
	fuzzFree         // index into the live handles; high bit: free an already-released handle instead
	fuzzDrain        // virtual time to advance before draining, in 10ms units
)

// A store's page byte: the low three bits index fuzzRatios, the high bit
// marks a refault.
const fuzzRefault = 0x80

// storeOp encodes a store batch of n pages sharing one page byte.
func storeOp(n int, page byte) []byte {
	op := []byte{fuzzStore, byte(n - 1)}
	for i := 0; i < n; i++ {
		op = append(op, page)
	}
	return op
}

// chainOpSeeds are hand-written op sequences covering the interesting paths.
var chainOpSeeds = [][]byte{
	// Compressible pages overfill lz4 past its HighWater; drains demote the
	// overflow down-chain, and the survivors load back.
	slices.Concat(storeOp(16, 7), []byte{fuzzDrain, 100}, storeOp(16, 7),
		[]byte{fuzzDrain, 200, fuzzLoad, 7, 0, fuzzLoad, 7, 3}),
	// Incompressible pages skip both compressed tiers and land on SSD; a
	// live handle is freed, then an already-released one.
	slices.Concat(storeOp(8, 0), []byte{fuzzLoad, 2, 1, fuzzFree, 0, fuzzFree, 0x80, fuzzDrain, 5}),
	// Refault stores fill every tier to capacity and hit ErrFull mid-batch;
	// a freed page makes room for one more.
	slices.Concat(storeOp(16, fuzzRefault), storeOp(16, fuzzRefault), []byte{fuzzFree, 3},
		storeOp(1, fuzzRefault), []byte{fuzzDrain, 255, fuzzLoad, 7, 0}),
	// Two SSD submissions fill the one-slot writeback queue, so the zstd
	// overflow stalls on store and its demotion round hits backpressure.
	slices.Concat(storeOp(2, 0), storeOp(2, 0), storeOp(16, 3), []byte{fuzzDrain, 0}),
	// Single-page stores and loads with drains that advance no time.
	slices.Concat(storeOp(1, 6), []byte{fuzzDrain, 0}, storeOp(1, 1), []byte{fuzzDrain, 0},
		storeOp(1, 7|fuzzRefault), []byte{fuzzLoad, 0, 0, fuzzFree, 0}),
	{},
}

// FuzzChainOps drives each of the fuzzChains with a decoded op sequence —
// store batches, loads and frees of live handles, drains with time advance
// — and checks it after every op against a map-backed reference of the live
// pages: prefix/ErrFull semantics, fresh handles that load exactly once,
// conserved pages and bytes across tiers, no tier above its capacity, and
// demotion FIFOs bounded by the pages they track.
func FuzzChainOps(f *testing.F) {
	for _, s := range chainOpSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runChainOps(t, ops) })
}

// TestChainOpSeedsReachFailurePaths: the hand-written seeds between them
// drive every failure path the fuzzer checks, so the corpus is never a
// happy-path-only replay.
func TestChainOpSeedsReachFailurePaths(t *testing.T) {
	var fulls int
	var skips, demotions, stalls int64
	for _, s := range chainOpSeeds {
		c, n := runChainOps(t, s)
		fulls += n
		skips += c.AdmitSkips()
		demotions += c.Demotions()
		stalls += c.DemoteBackpressure()
	}
	if fulls == 0 || skips == 0 || demotions == 0 || stalls == 0 {
		t.Fatalf("seeds reached ErrFull %d, admission skips %d, demotions %d, demotion backpressure %d times; want all > 0",
			fulls, skips, demotions, stalls)
	}
}

// runChainOps decodes and runs ops on fresh fuzzChains, checking each after
// every op. It returns the tiered chain and how many of its store batches
// hit ErrFull.
func runChainOps(t *testing.T, ops []byte) (*TierChain, int) {
	chains := fuzzChains()
	fulls := driveChain(t, chains[0], ops)
	for _, c := range chains[1:] {
		driveChain(t, c, ops)
	}
	return chains[0], fulls
}

// driveChain decodes and runs ops on c, checking it after every op, and
// returns how many store batches hit ErrFull.
func driveChain(t *testing.T, c *TierChain, ops []byte) int {
	last := len(c.tiers) - 1
	specs := c.TierSpecs()
	ref := map[Handle]int64{} // live handle -> logical bytes
	fulls := 0
	issued := map[Handle]bool{}
	var live, dead []Handle
	now := vclock.Time(vclock.Second)

	next := func() byte {
		if len(ops) == 0 {
			return 0
		}
		b := ops[0]
		ops = ops[1:]
		return b
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}

	for op := 0; len(ops) > 0; op++ {
		now += vclock.Time(vclock.Millisecond)
		switch next() % 4 {
		case fuzzStore:
			reqs := make([]StoreReq, 1+int(next()%16))
			for i := range reqs {
				b := next()
				reqs[i] = StoreReq{PageBytes: pageSize, CompressRatio: fuzzRatios[b%8], Refault: b&fuzzRefault != 0}
			}
			out := make([]StoreResult, len(reqs))
			n, err := c.StoreBatch(now, reqs, out)
			if n < 0 || n > len(reqs) || (err != nil && err != ErrFull) || (err == ErrFull) != (n < len(reqs)) {
				t.Fatalf("op %d: StoreBatch of %d = %d, %v", op, len(reqs), n, err)
			}
			if err == ErrFull {
				fulls++
				// The refused page must not fit the last tier.
				need, ls := reqs[n].PageBytes, specs[last]
				if ls.Kind == TierZswap {
					need = ls.Alloc.StoredSize(need, reqs[n].CompressRatio*ls.Codec.RatioFactor)
				}
				if st := c.TierStats(last); st.StoredBytes+need <= ls.CapacityBytes {
					t.Fatalf("op %d: ErrFull while the last tier holds %d of %d bytes",
						op, st.StoredBytes, ls.CapacityBytes)
				}
			}
			for _, r := range out[:n] {
				if issued[r.Handle] {
					t.Fatalf("op %d: handle %d issued twice", op, r.Handle)
				}
				if r.StoredBytes <= 0 {
					t.Fatalf("op %d: stored page consumed %d bytes", op, r.StoredBytes)
				}
				issued[r.Handle] = true
				ref[r.Handle] = pageSize
				live = append(live, r.Handle)
			}
		case fuzzLoad:
			k := 1 + int(next()%8)
			start := int(next())
			if len(live) == 0 {
				break
			}
			k = min(k, len(live))
			start %= len(live) - k + 1
			hs := append([]Handle(nil), live[start:start+k]...)
			live = append(live[:start], live[start+k:]...)
			c.LoadBatch(now, hs)
			for _, h := range hs {
				delete(ref, h)
			}
			dead = append(dead, hs...)
			mustPanic("reload of a loaded handle", func() { c.LoadBatch(now, hs[:1]) })
		case fuzzFree:
			b := next()
			if b&0x80 != 0 && len(dead) > 0 {
				before := c.Stats()
				c.Free(dead[int(b&0x7f)%len(dead)])
				if c.Stats() != before {
					t.Fatalf("op %d: freeing a released handle changed stats", op)
				}
				break
			}
			if len(live) == 0 {
				break
			}
			i := int(b) % len(live)
			h := live[i]
			live = append(live[:i], live[i+1:]...)
			c.Free(h)
			delete(ref, h)
			dead = append(dead, h)
		case fuzzDrain:
			now += vclock.Time(next()) * vclock.Time(10*vclock.Millisecond)
			c.DrainWriteback(now)
		}
		checkChainAgainstRef(t, op, c, ref)
	}

	c.LoadBatch(now, live)
	if st := c.Stats(); st.StoredPages != 0 || st.LogicalBytes != 0 || st.StoredBytes != 0 {
		t.Fatalf("chain not empty after loading every live handle: %+v", st)
	}
	return fulls
}

// checkChainAgainstRef checks the chain's accounting against the reference
// set of live pages.
func checkChainAgainstRef(t *testing.T, op int, c *TierChain, ref map[Handle]int64) {
	t.Helper()
	st := c.Stats()
	var logical int64
	for _, b := range ref {
		logical += b
	}
	if st.StoredPages != int64(len(ref)) || st.LogicalBytes != logical {
		t.Fatalf("op %d: chain holds %d pages / %d bytes, reference %d / %d",
			op, st.StoredPages, st.LogicalBytes, len(ref), logical)
	}
	var sum Stats
	var pool int64
	for i, spec := range c.TierSpecs() {
		ts := c.TierStats(i)
		if ts.StoredBytes > spec.CapacityBytes {
			t.Fatalf("op %d: tier %d holds %d bytes over its %d capacity", op, i, ts.StoredBytes, spec.CapacityBytes)
		}
		if spec.Kind == TierZswap {
			pool += ts.StoredBytes
		}
		sum.StoredPages += ts.StoredPages
		sum.LogicalBytes += ts.LogicalBytes
		sum.StoredBytes += ts.StoredBytes
		sum.TotalWrites += ts.TotalWrites
		sum.TotalReads += ts.TotalReads
		sum.WrittenBytes += ts.WrittenBytes
	}
	if sum != st {
		t.Fatalf("op %d: tier stats sum %+v != chain stats %+v", op, sum, st)
	}
	if got := c.PoolBytes(); got != pool {
		t.Fatalf("op %d: PoolBytes %d != compressed tiers' %d", op, got, pool)
	}
	checkVictimFIFOs(t, c)
}

// checkVictimFIFOs checks that no tier's demotion FIFO holds more than
// twice the tier's live pages plus one, and that the last tier, which has
// nowhere to demote to, keeps none.
func checkVictimFIFOs(t *testing.T, c *TierChain) {
	t.Helper()
	for i := range c.tiers {
		tier := &c.tiers[i]
		if n, live := int64(len(tier.lru)), tier.stats.StoredPages; n > 2*live+1 {
			t.Fatalf("tier %d FIFO holds %d handles for %d live pages", i, n, live)
		}
	}
	if n := len(c.tiers[len(c.tiers)-1].lru); n != 0 {
		t.Fatalf("last tier keeps a %d-entry FIFO", n)
	}
}
