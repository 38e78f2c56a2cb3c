package backend

import (
	"fmt"
	"math/rand/v2"

	"tmo/internal/dist"
	"tmo/internal/vclock"
)

// This file models the emerging offload tiers the paper anticipates (§2.5,
// §5.2): byte-addressable NVM (Optane-class persistent memory) and
// CXL-attached memory. Both slot between the zswap pool and NVMe SSD on the
// latency spectrum, have no compression step and no block-IO path, and their
// endurance is high enough that TMO's SSD write regulation is unnecessary.
//
// Faults against these tiers are therefore pure memory stalls (no IO
// pressure), like zswap, but without the pool's DRAM overhead: a page held
// in NVM/CXL costs no host DRAM at all.

// NVMSpec describes one byte-addressable slow-memory device.
type NVMSpec struct {
	// Kind is a catalog label ("nvm-optane", "cxl-dram").
	Kind string
	// Read latency distribution for a 4KiB page migration.
	ReadMedian, ReadP99 vclock.Duration
	// CapacityBytes bounds the tier; 0 = unbounded.
	CapacityBytes int64
}

// Published-order-of-magnitude device points: Optane PMem ~ a few us per
// 4KiB read; CXL-attached DRAM adds ~3-10x DRAM latency, i.e. well under a
// microsecond per line but on the order of a microsecond for a page move.
var (
	// SpecNVMOptane models an Optane-class persistent-memory module.
	SpecNVMOptane = NVMSpec{Kind: "nvm-optane",
		ReadMedian: 4 * vclock.Microsecond, ReadP99: 12 * vclock.Microsecond}
	// SpecCXLDRAM models DRAM behind a CXL link.
	SpecCXLDRAM = NVMSpec{Kind: "cxl-dram",
		ReadMedian: 2 * vclock.Microsecond, ReadP99: 5 * vclock.Microsecond}
)

// NVM is a swap backend over byte-addressable slow memory.
type NVM struct {
	spec NVMSpec

	rng     *rand.Rand
	readLat dist.Sampler

	pageBytes map[Handle]int64
	next      Handle
	stats     Stats
}

// NewNVM returns a backend following spec.
func NewNVM(spec NVMSpec, seed uint64) *NVM {
	return &NVM{
		spec:      spec,
		rng:       dist.NewRand(seed),
		readLat:   dist.FitLogNormal(spec.ReadMedian, spec.ReadP99),
		pageBytes: make(map[Handle]int64),
	}
}

// Store implements SwapBackend. Pages move uncompressed; the store is a
// memory copy whose cost is negligible at the simulation's resolution.
func (n *NVM) Store(now vclock.Time, pageBytes int64, _ float64) (StoreResult, error) {
	if n.spec.CapacityBytes > 0 && n.stats.StoredBytes+pageBytes > n.spec.CapacityBytes {
		return StoreResult{}, ErrFull
	}
	h := n.next
	n.next++
	n.pageBytes[h] = pageBytes
	n.stats.StoredPages++
	n.stats.LogicalBytes += pageBytes
	n.stats.StoredBytes += pageBytes
	n.stats.TotalWrites++
	return StoreResult{Handle: h, StoredBytes: pageBytes}, nil
}

// Load implements SwapBackend.
func (n *NVM) Load(now vclock.Time, h Handle) LoadResult {
	bytes, ok := n.pageBytes[h]
	if !ok {
		panic(fmt.Sprintf("backend: load of unknown nvm handle %d", h))
	}
	n.release(h, bytes)
	n.stats.TotalReads++
	return LoadResult{Latency: n.readLat.Sample(n.rng), BlockIO: false}
}

// StoreBatch implements SwapBackend via the per-page fallback: NVM stores
// are byte-copies with no amortisable fixed cost.
func (n *NVM) StoreBatch(now vclock.Time, reqs []StoreReq, out []StoreResult) (int, error) {
	return SerialStoreBatch(n, now, reqs, out)
}

// LoadBatch implements SwapBackend via the per-page fallback: each page move
// is an independent memory copy.
func (n *NVM) LoadBatch(now vclock.Time, hs []Handle) BatchLoadResult {
	return SerialLoadBatch(n, now, hs)
}

// DrainWriteback implements SwapBackend; NVM stores complete synchronously.
func (n *NVM) DrainWriteback(vclock.Time) {}

// Free implements SwapBackend.
func (n *NVM) Free(h Handle) {
	if bytes, ok := n.pageBytes[h]; ok {
		n.release(h, bytes)
	}
}

func (n *NVM) release(h Handle, bytes int64) {
	delete(n.pageBytes, h)
	n.stats.StoredPages--
	n.stats.LogicalBytes -= bytes
	n.stats.StoredBytes -= bytes
}

// Stats implements SwapBackend.
func (n *NVM) Stats() Stats { return n.stats }

// WriteRate implements SwapBackend; NVM endurance is not a limiting factor
// at paging rates, so nothing is reported for regulation.
func (n *NVM) WriteRate(vclock.Time) float64 { return 0 }

// PoolBytes implements SwapBackend; the tier is its own capacity, costing
// no host DRAM.
func (n *NVM) PoolBytes() int64 { return 0 }
