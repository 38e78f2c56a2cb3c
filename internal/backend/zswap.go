package backend

import (
	"math/rand/v2"

	"tmo/internal/dist"
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

// Zswap is the cost model of a compressed in-DRAM pool tier: the codec's
// latency distributions, sampled from the tier's own stream, and the
// allocator's sizing. Loads are pure decompression — fast, no block IO, and
// free of endurance limits — but every stored page still occupies pool DRAM,
// so the net saving per page is pageBytes minus its compressed size.
type Zswap struct {
	codec   Codec
	alloc   Allocator
	rng     *rand.Rand
	compLat dist.LogNormal
	decLat  dist.LogNormal
}

// newZswap returns the cost model of a pool using codec and alloc, sampling
// latencies from a stream derived from seed.
func newZswap(codec Codec, alloc Allocator, seed uint64) *Zswap {
	return &Zswap{
		codec:   codec,
		alloc:   alloc,
		rng:     dist.NewRand(seed),
		compLat: dist.FitLogNormal(codec.CompressMedian, codec.CompressP99),
		decLat:  dist.FitLogNormal(codec.DecompressMedian, codec.DecompressP99),
	}
}

// storedSize returns the pool bytes one page of the given intrinsic
// compression ratio consumes.
func (z *Zswap) storedSize(pageBytes int64, compressRatio float64) int64 {
	return z.alloc.StoredSize(pageBytes, compressRatio*z.codec.RatioFactor)
}

// zswapBatchAmortization discounts per-page codec latency for the tail pages
// of a batched submission: one kmap/scheduling round-trip covers the whole
// cluster, so pages after the first pay only the codec's compute cost
// (~60% of the standalone per-page figure).
const zswapBatchAmortization = 0.6

// amortize applies the batch discount to the i-th page of a submission.
func amortize(lat vclock.Duration, i int) vclock.Duration {
	if i > 0 {
		return vclock.Duration(float64(lat) * zswapBatchAmortization)
	}
	return lat
}

// compress samples the compression latency of the i-th page of a store
// submission, paid synchronously by the reclaimer.
func (z *Zswap) compress(i int) vclock.Duration {
	return amortize(z.compLat.Sample(z.rng), i)
}

// decompress samples the decompression latency of the i-th page of a load
// submission: a memory stall with no block IO.
func (z *Zswap) decompress(i int) vclock.Duration {
	return amortize(z.decLat.Sample(z.rng), i)
}
