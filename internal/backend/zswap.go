package backend

import (
	"fmt"
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
// is pageBytes minus its compressed size.
type Zswap struct {
	codec Codec
	alloc Allocator
	// maxPoolBytes bounds the pool's DRAM footprint; 0 means unbounded.
	maxPoolBytes int64

	rng      *rand.Rand
	compLat  dist.Sampler
	decLat   dist.Sampler
	entries  map[Handle]zswapEntry
	order    []Handle // insertion order, for LRU writeback; may hold freed handles
	next     Handle
	stats    Stats
	rejected int64

	// Registry instruments, nil until EnableTelemetry.
	telStores, telLoads, telRejects *telemetry.Counter
	telRatio                        *telemetry.Histogram
}

type zswapEntry struct {
	logical int64
	stored  int64
}

// NewZswap returns a compressed pool using the given codec and allocator.
func NewZswap(codec Codec, alloc Allocator, maxPoolBytes int64, seed uint64) *Zswap {
	return &Zswap{
		codec:        codec,
		alloc:        alloc,
		maxPoolBytes: maxPoolBytes,
		rng:          dist.NewRand(seed),
		compLat:      dist.FitLogNormal(codec.CompressMedian, codec.CompressP99),
		decLat:       dist.FitLogNormal(codec.DecompressMedian, codec.DecompressP99),
		entries:      make(map[Handle]zswapEntry),
	}
}

// Store implements SwapBackend.
func (z *Zswap) Store(now vclock.Time, pageBytes int64, compressRatio float64) (StoreResult, error) {
	eff := compressRatio * z.codec.RatioFactor
	stored := z.alloc.StoredSize(pageBytes, eff)
	if z.maxPoolBytes > 0 && z.stats.StoredBytes+stored > z.maxPoolBytes {
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
	h := z.next
	z.next++
	z.entries[h] = zswapEntry{logical: pageBytes, stored: stored}
	z.order = append(z.order, h)
	z.stats.StoredPages++
	z.stats.LogicalBytes += pageBytes
	z.stats.StoredBytes += stored
	z.stats.TotalWrites++
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
		r, err := z.Store(now, req.PageBytes, req.CompressRatio)
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

// Load implements SwapBackend. Zswap loads decompress in place: a memory
// stall with no block IO.
func (z *Zswap) Load(now vclock.Time, h Handle) LoadResult {
	e, ok := z.entries[h]
	if !ok {
		panic(fmt.Sprintf("backend: load of unknown zswap handle %d", h))
	}
	z.release(h, e)
	z.stats.TotalReads++
	if z.telLoads != nil {
		z.telLoads.Inc()
	}
	return LoadResult{Latency: z.decLat.Sample(z.rng), BlockIO: false}
}

// LoadBatch implements SwapBackend: every page still decompresses, but tail
// pages pay the amortised codec cost because the submission overhead is paid
// once for the cluster.
func (z *Zswap) LoadBatch(now vclock.Time, hs []Handle) BatchLoadResult {
	var res BatchLoadResult
	for i, h := range hs {
		e, ok := z.entries[h]
		if !ok {
			panic(fmt.Sprintf("backend: load of unknown zswap handle %d", h))
		}
		z.release(h, e)
		z.stats.TotalReads++
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

// Free implements SwapBackend.
func (z *Zswap) Free(h Handle) {
	if e, ok := z.entries[h]; ok {
		z.release(h, e)
	}
}

func (z *Zswap) release(h Handle, e zswapEntry) {
	delete(z.entries, h)
	z.stats.StoredPages--
	z.stats.LogicalBytes -= e.logical
	z.stats.StoredBytes -= e.stored
}

// Stats implements SwapBackend.
func (z *Zswap) Stats() Stats { return z.stats }

// WriteRate implements SwapBackend; zswap has no endurance-limited writes.
func (z *Zswap) WriteRate(vclock.Time) float64 { return 0 }

// Rejected returns how many stores were refused because the pool was full.
func (z *Zswap) Rejected() int64 { return z.rejected }

// PoolBytes returns the pool's current DRAM footprint. The memory manager
// counts this against host memory: zswap savings are logical minus pool
// bytes.
func (z *Zswap) PoolBytes() int64 { return z.stats.StoredBytes }

// OldestHandle returns the least-recently-stored live entry, if any. The
// tiered backend uses it to pick writeback victims, matching zswap's
// LRU-ordered writeback to the backing swap device.
func (z *Zswap) OldestHandle() (Handle, bool) {
	for len(z.order) > 0 {
		h := z.order[0]
		if _, ok := z.entries[h]; ok {
			return h, true
		}
		z.order = z.order[1:] // drop freed/loaded entries lazily
	}
	return 0, false
}

// EntrySize returns the logical (uncompressed) size of a stored entry.
func (z *Zswap) EntrySize(h Handle) (int64, bool) {
	e, ok := z.entries[h]
	if !ok {
		return 0, false
	}
	return e.logical, true
}

// Writeback removes an entry from the pool for migration to a lower tier,
// returning its logical size and the decompression latency the writeback
// path pays. Unlike Load it is initiated by the backend itself, not a
// fault.
func (z *Zswap) Writeback(h Handle) (logical int64, lat vclock.Duration, ok bool) {
	e, found := z.entries[h]
	if !found {
		return 0, 0, false
	}
	z.release(h, e)
	return e.logical, z.decLat.Sample(z.rng), true
}
