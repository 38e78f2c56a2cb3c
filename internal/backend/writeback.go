package backend

import (
	"tmo/internal/vclock"
)

// This file models asynchronous swap-out writeback as an explicit
// depth-limited queue drained on the virtual clock, following the flusher
// architecture of userspace and cloud swap designs ("Flexible Swapping for
// the Cloud", arXiv 2409.13327): reclaim hands a page (or a clustered batch
// of pages) to the queue and moves on; the device absorbs the writes at its
// own IOPS/byte-rate pace. Two consequences the inline model could not
// express:
//
//   - Device write cost lands on the write meters at *issue* time, spread
//     over the drain schedule, instead of instantaneously at reclaim time —
//     so a reclaim burst no longer spikes the queue factor seen by the very
//     next demand read.
//   - When the queue is full, reclaim blocks until a slot frees (the
//     kernel's writeback congestion throttling). That wait is returned to
//     the reclaimer as a stall, which feeds PSI — slow devices now push
//     back on reclaim instead of silently absorbing unbounded writes.
//
// Injected device stalls (chaos) gate the drain schedule: nothing issues
// while the device is frozen, so a stall backs the queue up and converts
// into reclaim backpressure once the depth limit is hit.

// DefaultWritebackDepth is the queue depth used when a chain is built with
// depth zero: 64 in-flight write submissions, a typical NVMe swap-out queue
// budget.
const DefaultWritebackDepth = 64

// wbEntry is one queued write submission.
type wbEntry struct {
	pages int
	bytes int64
	ready vclock.Time // enqueue time; cannot issue earlier
}

// writebackQueue paces queued write submissions onto an SSDDevice at the
// device's write-IOPS and bandwidth ceilings.
type writebackQueue struct {
	dev *SSDDevice

	// ring buffer of pending submissions, one slot per unit of queue
	// depth (a clustered batch counts once); head indexes the oldest.
	ring []wbEntry
	head int
	n    int

	// nextIssue is when the device is free for the next submission.
	nextIssue vclock.Time

	drained   int64           // submissions issued to the device
	highWater int64           // maximum depth observed
	stalls    int64           // pushes that waited for a free slot
	stallTime vclock.Duration // backpressure those pushes served
}

// newWritebackQueue returns a queue over dev holding up to depth
// submissions; pushes beyond it stall the reclaimer until a slot drains.
// Zero selects DefaultWritebackDepth.
func newWritebackQueue(dev *SSDDevice, depth int) *writebackQueue {
	if depth <= 0 {
		depth = DefaultWritebackDepth
	}
	return &writebackQueue{dev: dev, ring: make([]wbEntry, depth)}
}

// interval returns how long the device is occupied by one submission of the
// given size: the larger of the per-op budget and the byte-transfer budget.
func (q *writebackQueue) interval(bytes int64) vclock.Duration {
	iops := q.dev.Spec.WriteIOPS
	var opDur vclock.Duration
	if iops > 0 {
		opDur = vclock.Duration(float64(vclock.Second) / iops)
	}
	bw := q.dev.Spec.WriteBWBytesPerSec
	var xferDur vclock.Duration
	if bw > 0 {
		xferDur = vclock.Duration(float64(bytes) / bw * float64(vclock.Second))
	}
	if xferDur > opDur {
		return xferDur
	}
	return opDur
}

// issueAt returns the earliest instant the head submission may issue.
func (q *writebackQueue) issueAt() vclock.Time {
	at := q.ring[q.head].ready
	if q.nextIssue > at {
		at = q.nextIssue
	}
	if q.dev.stallUntil > at {
		at = q.dev.stallUntil
	}
	return at
}

// drain issues every queued submission due by now.
func (q *writebackQueue) drain(now vclock.Time) {
	for q.n > 0 {
		at := q.issueAt()
		if at > now {
			return
		}
		e := q.ring[q.head]
		q.dev.WriteBatch(at, e.pages, e.bytes)
		q.nextIssue = at.Add(q.interval(e.bytes))
		q.head = (q.head + 1) % len(q.ring)
		q.n--
		q.drained++
	}
}

// push enqueues one submission of pages/bytes at now and returns the
// backpressure stall the caller must serve: zero while the queue has room,
// otherwise the wait until enough slots drained.
func (q *writebackQueue) push(now vclock.Time, pages int, bytes int64) vclock.Duration {
	q.drain(now)
	var stall vclock.Duration
	at := now
	for q.n >= len(q.ring) {
		// Wait until the head submission issues, freeing one slot.
		free := q.issueAt().Add(q.interval(q.ring[q.head].bytes))
		if free <= at {
			free = at + 1 // device frozen exactly to at: make progress
		}
		stall += free.Sub(at)
		at = free
		q.drain(at)
	}
	q.ring[(q.head+q.n)%len(q.ring)] = wbEntry{pages: pages, bytes: bytes, ready: at}
	q.n++
	if int64(q.n) > q.highWater {
		q.highWater = int64(q.n)
	}
	if stall > 0 {
		q.stalls++
		q.stallTime += stall
	}
	return stall
}

// depth returns the current number of queued submissions.
func (q *writebackQueue) depth() int { return q.n }
