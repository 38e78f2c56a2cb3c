package backend

import (
	"math/rand/v2"

	"tmo/internal/dist"
	"tmo/internal/vclock"
)

// This file models byte-addressable persistent memory (Optane-class NVM),
// one of the emerging offload tiers the paper anticipates (§2.5, §5.2). It
// slots between the zswap pool and NVMe SSD on the latency spectrum, has no
// compression step and no block-IO path, and its endurance is high enough
// that TMO's SSD write regulation is unnecessary.
//
// Faults against it are therefore pure memory stalls (no IO pressure), like
// zswap, but without the pool's DRAM overhead: a page held in NVM costs no
// host DRAM at all. (CXL-attached memory is a placement tier instead; see
// cxlnode.go.)

// NVMSpec describes one byte-addressable slow-memory device.
type NVMSpec struct {
	// Read latency distribution for a 4KiB page migration.
	ReadMedian, ReadP99 vclock.Duration
	// CapacityBytes bounds the tier; it must be positive.
	CapacityBytes int64
}

// SpecNVMOptane models an Optane-class persistent-memory module: a few
// microseconds per 4KiB read, a published order-of-magnitude device point.
var SpecNVMOptane = NVMSpec{ReadMedian: 4 * vclock.Microsecond, ReadP99: 12 * vclock.Microsecond}

// NVM is a swap backend over byte-addressable slow memory.
type NVM struct {
	ledger
	rng     *rand.Rand
	readLat dist.Sampler
}

// NewNVM returns a backend following spec.
func NewNVM(spec NVMSpec, seed uint64) *NVM {
	return &NVM{
		ledger:  newLedger("nvm device", spec.CapacityBytes),
		rng:     dist.NewRand(seed),
		readLat: dist.FitLogNormal(spec.ReadMedian, spec.ReadP99),
	}
}

// StoreBatch implements SwapBackend. Pages move uncompressed; each store is
// a memory copy whose cost is negligible at the simulation's resolution, so
// a batch has no fixed cost to amortise.
func (n *NVM) StoreBatch(now vclock.Time, reqs []StoreReq, out []StoreResult) (int, error) {
	for i, req := range reqs {
		h, ok := n.admit(req.PageBytes, req.PageBytes)
		if !ok {
			return i, ErrFull
		}
		out[i] = StoreResult{Handle: h, StoredBytes: req.PageBytes}
	}
	return len(reqs), nil
}

// LoadBatch implements SwapBackend: each page move is an independent memory
// copy paying its own sampled read latency.
func (n *NVM) LoadBatch(now vclock.Time, hs []Handle) BatchLoadResult {
	var res BatchLoadResult
	for _, h := range hs {
		n.load(h)
		res.Latency += n.readLat.Sample(n.rng)
	}
	return res
}

// DrainWriteback implements SwapBackend; NVM stores complete synchronously.
func (n *NVM) DrainWriteback(vclock.Time) {}

// WriteRate implements SwapBackend; NVM endurance is not a limiting factor
// at paging rates, so nothing is reported for regulation.
func (n *NVM) WriteRate(vclock.Time) float64 { return 0 }

// PoolBytes implements SwapBackend; the tier is its own capacity, costing
// no host DRAM.
func (n *NVM) PoolBytes() int64 { return 0 }
