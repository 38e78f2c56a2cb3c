// Package backend implements TMO's offload backends: the slow-memory tiers
// that hold memory offloaded from DRAM (§2.5, §3.4.1 of the paper).
//
// Every swap mode is a TierChain: an ordered stack of tiers behind one swap
// path, where a one-tier chain is a plain zswap pool, SSD swap partition or
// NVM device. The chain is the only place that books swapped pages: one
// entry per page, keyed by the handle the memory manager holds, records its
// tier and footprint, and per-tier Stats sum those entries. The substrates
// themselves — Zswap, SSDSwap and NVM — are cost models only: codec
// latencies and allocator sizing, the SSD device and its writeback queue,
// NVM read latencies. They hold no pages. The filesystem path reloads
// evicted file cache. SSD devices are modeled after the fleet heterogeneity
// of Fig. 5: seven device generations (A-G) spanning a 470us-9.3ms p99
// read-latency range, with per-device IOPS ceilings and write-endurance
// budgets.
//
// The memory manager stores and loads batches of pages through the chain
// without knowing which tier serves them; the resulting fault latencies
// feed PSI (BatchLoadResult.BlockIO routes a load's stall to IO pressure
// too), which is how Senpai adapts to backend performance without
// device-specific configuration.
package backend

import (
	"errors"

	"tmo/internal/vclock"
)

// Handle identifies a stored page within a chain.
type Handle uint64

// ErrFull is returned by StoreBatch when the chain has no room: its last
// tier (a zswap pool at its size limit or a swap device) is out of space. The reclaim path
// treats it as a failed reclaim of that page.
var ErrFull = errors.New("backend: no space for offloaded page")

// StoreResult describes one page of a completed offload.
type StoreResult struct {
	Handle Handle
	// StoredBytes is the physical space consumed in the backend after
	// compression and allocator overhead; equals the page size for SSD swap.
	StoredBytes int64
	// DeviceWrite is the number of bytes written to a wear-limited device;
	// zero for zswap.
	DeviceWrite int64
	// Latency is the synchronous cost paid by the reclaimer (compression
	// time for zswap; SSD swap-out writes are asynchronous writeback, so
	// this is zero for SSD unless the writeback queue pushed back).
	Latency vclock.Duration
}

// StoreReq describes one page of a batched store submission.
type StoreReq struct {
	// PageBytes is the page size being offloaded.
	PageBytes int64
	// CompressRatio is the content's intrinsic compression ratio
	// (uncompressed/compressed, >= 1); ignored by uncompressed tiers.
	CompressRatio float64
	// Refault marks a page that demand-faulted back since its last offload.
	// Multi-tier chains bias such pages toward faster tiers (promotion on
	// refault); a one-tier chain has nowhere else to put them.
	Refault bool
}

// BatchLoadResult describes a completed batched load: one submission
// covering every page of a swap cluster (the demand page plus its readahead
// neighbours).
type BatchLoadResult struct {
	// Latency is the submission-to-completion time of the whole batch. The
	// faulting task waits it out; coalesced faulters on the same batch wait
	// only the remainder.
	Latency vclock.Duration
	// BlockIO reports whether any page in the batch performed block IO, in
	// which case the stall also counts toward IO pressure.
	BlockIO bool
}

// Stats is a point-in-time summary of a tier's (or a whole chain's)
// contents and traffic.
type Stats struct {
	StoredPages  int64 // pages currently held
	LogicalBytes int64 // uncompressed bytes currently held
	StoredBytes  int64 // physical bytes currently consumed
	TotalWrites  int64 // cumulative page stores
	TotalReads   int64 // cumulative page loads
	WrittenBytes int64 // cumulative bytes written to a wear-limited device
}
