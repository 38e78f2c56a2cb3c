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
}

// SpecNVMOptane models an Optane-class persistent-memory module: a few
// microseconds per 4KiB read, a published order-of-magnitude device point.
var SpecNVMOptane = NVMSpec{ReadMedian: 4 * vclock.Microsecond, ReadP99: 12 * vclock.Microsecond}

// NVM is the cost model of a byte-addressable slow-memory tier. Pages move
// uncompressed; a store is a memory copy whose cost is negligible at the
// simulation's resolution, and each load is an independent copy paying its
// own sampled read latency, so a batch has no fixed cost to amortise.
type NVM struct {
	rng     *rand.Rand
	readLat dist.LogNormal
}

// newNVM returns the cost model of spec, sampling from a stream derived
// from seed.
func newNVM(spec NVMSpec, seed uint64) *NVM {
	return &NVM{rng: dist.NewRand(seed), readLat: dist.FitLogNormal(spec.ReadMedian, spec.ReadP99)}
}

// read samples the latency of loading one page.
func (n *NVM) read() vclock.Duration { return n.readLat.Sample(n.rng) }
