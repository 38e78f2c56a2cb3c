package backend

import (
	"math/rand/v2"

	"tmo/internal/dist"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// Codec models a zswap compression algorithm. The paper's production
// deployment evaluated lzo, lz4, and zstd and selected zstd for its
// compression ratio at acceptable overhead (§5.1).
type Codec struct {
	// Name of the algorithm.
	Name string
	// RatioFactor scales a page's intrinsic compressibility: zstd achieves
	// the full ratio (1.0); the faster byte-oriented codecs achieve less.
	RatioFactor float64
	// Compression cost paid synchronously on the reclaim path.
	CompressMedian, CompressP99 vclock.Duration
	// Decompression cost paid synchronously by the faulting task.
	DecompressMedian, DecompressP99 vclock.Duration
}

// The codecs evaluated in §5.1. Decompression latencies put the zswap p90
// load around the paper's 40us figure for zstd.
var (
	CodecZstd = Codec{Name: "zstd", RatioFactor: 1.0,
		CompressMedian: 28 * vclock.Microsecond, CompressP99: 90 * vclock.Microsecond,
		DecompressMedian: 22 * vclock.Microsecond, DecompressP99: 75 * vclock.Microsecond}
	CodecLz4 = Codec{Name: "lz4", RatioFactor: 0.75,
		CompressMedian: 10 * vclock.Microsecond, CompressP99: 35 * vclock.Microsecond,
		DecompressMedian: 6 * vclock.Microsecond, DecompressP99: 20 * vclock.Microsecond}
	CodecLzo = Codec{Name: "lzo", RatioFactor: 0.72,
		CompressMedian: 13 * vclock.Microsecond, CompressP99: 45 * vclock.Microsecond,
		DecompressMedian: 8 * vclock.Microsecond, DecompressP99: 28 * vclock.Microsecond}
)

// Allocator models a zswap memory-pool allocator. The production deployment
// evaluated z3fold, zbud, and zsmalloc and chose zsmalloc as the most
// space-efficient (§5.1).
type Allocator struct {
	// Name of the pool allocator.
	Name string
	// MaxPerPage caps how many compressed objects pack into one physical
	// page: zbud packs 2, z3fold packs 3, zsmalloc is size-class based and
	// effectively unbounded for 4KiB objects.
	MaxPerPage float64
	// Overhead is the per-object metadata and fragmentation multiplier.
	Overhead float64
}

// The pool allocators evaluated in §5.1.
var (
	AllocZsmalloc = Allocator{Name: "zsmalloc", MaxPerPage: 16, Overhead: 1.02}
	AllocZ3fold   = Allocator{Name: "z3fold", MaxPerPage: 3, Overhead: 1.06}
	AllocZbud     = Allocator{Name: "zbud", MaxPerPage: 2, Overhead: 1.04}
)

// StoredSize returns the physical pool bytes one page consumes after
// compression with the given effective ratio under this allocator.
func (a Allocator) StoredSize(pageBytes int64, effRatio float64) int64 {
	if effRatio < 1 {
		effRatio = 1
	}
	// The allocator can never pack more than MaxPerPage objects into a
	// physical page, so the effective ratio saturates there.
	if effRatio > a.MaxPerPage {
		effRatio = a.MaxPerPage
	}
	return int64(float64(pageBytes) / effRatio * a.Overhead)
}

// Zswap is a compressed in-DRAM pool for offloaded anonymous pages. Loads
// are pure decompression — fast, no block IO, and free of endurance limits —
// but every stored page still occupies pool DRAM, so the net saving per page
// is pageBytes minus its compressed size. The embedded ledger's capacity is
// the pool's DRAM budget.
type Zswap struct {
	ledger
	codec Codec
	alloc Allocator

	rng      *rand.Rand
	compLat  dist.Sampler
	decLat   dist.Sampler
	order    []Handle // insertion order, for LRU writeback; may hold freed handles
	rejected int64

	// Registry instruments, nil until EnableTelemetry.
	telStores, telLoads, telRejects *telemetry.Counter
	telRatio                        *telemetry.Histogram
}

// NewZswap returns a compressed pool of at most maxPoolBytes (positive)
// using the given codec and allocator.
func NewZswap(codec Codec, alloc Allocator, maxPoolBytes int64, seed uint64) *Zswap {
	return &Zswap{
		ledger:  newLedger("zswap pool", maxPoolBytes),
		codec:   codec,
		alloc:   alloc,
		rng:     dist.NewRand(seed),
		compLat: dist.FitLogNormal(codec.CompressMedian, codec.CompressP99),
		decLat:  dist.FitLogNormal(codec.DecompressMedian, codec.DecompressP99),
	}
}

// store admits one page into the pool, or counts a reject when its
// compressed size does not fit; the compression latency is sampled only for
// an admitted page. StoreBatch and the chain's demotion both admit through
// it.
func (z *Zswap) store(pageBytes int64, compressRatio float64) (StoreResult, error) {
	stored := z.alloc.StoredSize(pageBytes, compressRatio*z.codec.RatioFactor)
	h, ok := z.admit(pageBytes, stored)
	if !ok {
		z.rejected++
		if z.telRejects != nil {
			z.telRejects.Inc()
		}
		return StoreResult{}, ErrFull
	}
	if z.telStores != nil {
		z.telStores.Inc()
		// The achieved ratio: logical page size over pool bytes consumed.
		z.telRatio.Record(float64(pageBytes) / float64(stored))
	}
	z.order = append(z.order, h)
	return StoreResult{
		Handle:      h,
		StoredBytes: stored,
		Latency:     z.compLat.Sample(z.rng),
	}, nil
}

// zswapBatchAmortization discounts per-page codec latency for the tail pages
// of a batched submission: one kmap/scheduling round-trip covers the whole
// cluster, so pages after the first pay only the codec's compute cost
// (~60% of the standalone per-page figure).
const zswapBatchAmortization = 0.6

// StoreBatch implements SwapBackend: per-page pool admission (a batch stores
// a prefix on ErrFull), with the per-op overhead amortised across the tail
// pages' compression latencies.
func (z *Zswap) StoreBatch(now vclock.Time, reqs []StoreReq, out []StoreResult) (int, error) {
	for i, req := range reqs {
		r, err := z.store(req.PageBytes, req.CompressRatio)
		if err != nil {
			return i, err
		}
		if i > 0 {
			r.Latency = vclock.Duration(float64(r.Latency) * zswapBatchAmortization)
		}
		out[i] = r
	}
	return len(reqs), nil
}

// LoadBatch implements SwapBackend. Zswap loads decompress in place: a
// memory stall with no block IO. Every page still decompresses, but tail
// pages pay the amortised codec cost because the submission overhead is
// paid once for the cluster.
func (z *Zswap) LoadBatch(now vclock.Time, hs []Handle) BatchLoadResult {
	var res BatchLoadResult
	for i, h := range hs {
		z.load(h)
		lat := z.decLat.Sample(z.rng)
		if i > 0 {
			lat = vclock.Duration(float64(lat) * zswapBatchAmortization)
		}
		res.Latency += lat
	}
	if z.telLoads != nil {
		z.telLoads.Add(int64(len(hs)))
	}
	return res
}

// DrainWriteback implements SwapBackend; zswap stores synchronously into the
// pool, so there is nothing to drain.
func (z *Zswap) DrainWriteback(vclock.Time) {}

// WriteRate implements SwapBackend; zswap has no endurance-limited writes.
func (z *Zswap) WriteRate(vclock.Time) float64 { return 0 }

// Rejected returns how many stores were refused because the pool was full.
func (z *Zswap) Rejected() int64 { return z.rejected }

// PoolBytes returns the pool's current DRAM footprint. The memory manager
// counts this against host memory: zswap savings are logical minus pool
// bytes.
func (z *Zswap) PoolBytes() int64 { return z.stats.StoredBytes }

// OldestHandle returns the least-recently-stored live entry, if any. A tier
// chain uses it to pick demotion victims, matching zswap's LRU-ordered
// writeback to the backing swap device.
func (z *Zswap) OldestHandle() (Handle, bool) {
	for len(z.order) > 0 {
		h := z.order[0]
		if _, ok := z.slots[h]; ok {
			return h, true
		}
		z.order = z.order[1:] // drop freed/loaded entries lazily
	}
	return 0, false
}

// Writeback removes an entry from the pool for migration to a lower tier,
// returning its logical size and the decompression latency the writeback
// path pays. Unlike a load it is initiated by the backend itself, not a
// fault, so it counts no read.
func (z *Zswap) Writeback(h Handle) (logical int64, lat vclock.Duration, ok bool) {
	s, found := z.remove(h)
	if !found {
		return 0, 0, false
	}
	return s.logical, z.decLat.Sample(z.rng), true
}
