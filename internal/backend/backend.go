// Package backend implements TMO's offload backends: the slow-memory tiers
// that hold memory offloaded from DRAM (§2.5, §3.4.1 of the paper).
//
// The swap substrates — a zswap-style compressed memory pool, NVMe SSD
// swap, and byte-addressable NVM — are stacked by TierChain, which is how
// every swap mode is assembled: a one-tier chain is a plain pool, swap
// partition, or NVM device. The filesystem path reloads evicted file cache.
// SSD devices are modeled after the fleet heterogeneity of Fig. 5: seven
// device generations (A-G) spanning a 470us-9.3ms p99 read-latency range,
// with per-device IOPS ceilings and write-endurance budgets.
//
// The memory manager stores and loads batches of pages through the
// SwapBackend interface without knowing which tier it is talking to; the
// resulting fault latencies feed PSI (BatchLoadResult.BlockIO routes a
// load's stall to IO pressure too), which is how Senpai adapts to backend
// performance without device-specific configuration.
package backend

import (
	"errors"
	"fmt"

	"tmo/internal/vclock"
)

// Handle identifies a stored page within a backend.
type Handle uint64

// ErrFull is returned by StoreBatch when the backend has no room: a zswap
// pool at its size limit or a swap device out of space. The reclaim path
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
	// refault); single-tier backends ignore it.
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

// Stats is a point-in-time summary of a backend's contents and traffic.
type Stats struct {
	StoredPages  int64 // pages currently held
	LogicalBytes int64 // uncompressed bytes currently held
	StoredBytes  int64 // physical bytes currently consumed
	TotalWrites  int64 // cumulative page stores
	TotalReads   int64 // cumulative page loads
	WrittenBytes int64 // cumulative bytes written to a wear-limited device
}

// SwapBackend is a tier that holds offloaded anonymous pages. Every data-path
// operation is a batch; a single page is a one-page batch.
type SwapBackend interface {
	// StoreBatch offloads len(reqs) pages in one submission, filling
	// out[:n] with per-page results (len(out) must be >= len(reqs)). A
	// batch stores a prefix: on ErrFull it reports how many pages fit
	// before the backend ran out of room. Batched tiers pay fixed
	// per-submission costs once.
	StoreBatch(now vclock.Time, reqs []StoreReq, out []StoreResult) (int, error)
	// LoadBatch brings every page in hs back to DRAM in one submission and
	// releases their space. An SSD batch pays seek/queue/stall cost once
	// plus a byte-rate transfer term; zswap batches amortise per-op
	// overhead across the tail. Loading an unknown handle panics.
	LoadBatch(now vclock.Time, hs []Handle) BatchLoadResult
	// DrainWriteback completes asynchronous swap-out writeback due by now
	// (depth-limited queue draining on the virtual clock). Backends
	// without a device-side queue treat it as a no-op. The simulator calls
	// it once per tick; backends also drain lazily on their own
	// operations, so standalone use without a tick loop stays correct.
	DrainWriteback(now vclock.Time)
	// Free releases a stored page without loading it (the owner exited);
	// freeing an unknown handle is a no-op.
	Free(h Handle)
	// Stats reports current contents and cumulative traffic.
	Stats() Stats
	// WriteRate reports the recent device write rate in bytes/second; zero
	// for backends without endurance limits. Senpai's write regulation
	// (Fig. 14) consumes this.
	WriteRate(now vclock.Time) float64
	// PoolBytes reports how much host DRAM the backend itself consumes for
	// stored pages: the compressed-pool footprint for zswap, zero for SSD
	// swap. The memory manager charges this against host capacity, so the
	// net saving of a zswap'd page is its size minus its compressed size.
	PoolBytes() int64
}

// slot is one stored page's footprint in a substrate.
type slot struct {
	logical, stored int64
}

// ledger is the slot bookkeeping every swap substrate (Zswap, SSDSwap, NVM)
// embeds: the handle map, the handle counter, the Stats counters and the
// capacity bound. Its Free and Stats methods implement the SwapBackend
// methods of the same name.
type ledger struct {
	capacity int64
	slots    map[Handle]slot
	next     Handle
	stats    Stats
}

// newLedger returns a ledger bounded at capacity bytes, which must be
// positive: every substrate is sized.
func newLedger(kind string, capacity int64) ledger {
	if capacity <= 0 {
		panic(fmt.Sprintf("backend: %s needs a positive capacity, got %d", kind, capacity))
	}
	return ledger{capacity: capacity, slots: make(map[Handle]slot)}
}

// admit records one page under a fresh handle, or reports false when its
// stored bytes do not fit under the capacity.
func (l *ledger) admit(logical, stored int64) (Handle, bool) {
	if l.stats.StoredBytes+stored > l.capacity {
		return 0, false
	}
	h := l.next
	l.next++
	l.slots[h] = slot{logical: logical, stored: stored}
	l.stats.StoredPages++
	l.stats.LogicalBytes += logical
	l.stats.StoredBytes += stored
	l.stats.TotalWrites++
	return h, true
}

// remove releases a live handle's slot, reporting false for an unknown one.
func (l *ledger) remove(h Handle) (slot, bool) {
	s, ok := l.slots[h]
	if ok {
		delete(l.slots, h)
		l.stats.StoredPages--
		l.stats.LogicalBytes -= s.logical
		l.stats.StoredBytes -= s.stored
	}
	return s, ok
}

// load releases a live handle's slot as a page load, panicking on an
// unknown handle.
func (l *ledger) load(h Handle) slot {
	s, ok := l.remove(h)
	if !ok {
		panic(fmt.Sprintf("backend: load of unknown handle %d", h))
	}
	l.stats.TotalReads++
	return s
}

// Free implements SwapBackend.
func (l *ledger) Free(h Handle) { l.remove(h) }

// Stats implements SwapBackend.
func (l *ledger) Stats() Stats { return l.stats }
