package workload

import (
	"math/bits"

	"tmo/internal/vclock"
)

// latSubBits sets the recorder's resolution: each octave splits into
// 1<<latSubBits equal sub-buckets, so a bucket's midpoint is within 1/32 of
// every value it holds.
const latSubBits = 4

// latBuckets covers every non-negative int64 microsecond count.
const latBuckets = (64 - latSubBits) << latSubBits

// latencyHist counts request wall times in log-linear buckets over integer
// microseconds. Values below 16 µs get one bucket each; above that, each
// octave [2^k, 2^(k+1)) has 16 sub-buckets, 1 µs wide up to 32 µs. It keeps
// no samples and draws no randomness, so recording costs an increment and
// cannot perturb the request path's streams.
type latencyHist struct {
	counts [latBuckets]int64
	n      int64
}

// latBucket returns the bucket holding v: the shift that leaves v's top
// five bits, times 16, plus those five bits.
func latBucket(v uint64) int {
	shift := max(bits.Len64(v), latSubBits+1) - (latSubBits + 1)
	return shift<<latSubBits + int(v>>shift)
}

// latMid returns the midpoint of bucket i, the inverse of latBucket.
func latMid(i int) uint64 {
	shift := max(i>>latSubBits, 1) - 1
	lo := uint64(i-shift<<latSubBits) << shift
	return lo + (uint64(1)<<shift)>>1
}

func (h *latencyHist) record(d vclock.Duration) {
	h.counts[latBucket(uint64(d))]++
	h.n++
}

// quantile returns the midpoint of the bucket holding the nearest-rank
// q-th value, rank ⌊q·(n−1)⌋, or 0 if nothing was recorded.
func (h *latencyHist) quantile(q float64) vclock.Duration {
	if h.n == 0 {
		return 0
	}
	rank := min(max(int64(q*float64(h.n-1)), 0), h.n-1)
	for i, c := range h.counts {
		if rank < c {
			return vclock.Duration(latMid(i))
		}
		rank -= c
	}
	panic("workload: latency counts do not sum to their total")
}
