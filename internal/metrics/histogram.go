package metrics

import "math/bits"

// histSubBits sets the histogram's resolution: each octave splits into
// 1<<histSubBits equal sub-buckets, so a bucket's midpoint is within 1/32 of
// every value it holds.
const histSubBits = 4

// histBuckets covers every non-negative int64.
const histBuckets = (64 - histSubBits) << histSubBits

// Histogram counts non-negative integer observations (latencies in µs,
// sizes in pages or bytes, ratios in hundredths) in log-linear buckets:
// values below 32 get one bucket each; above that, each octave
// [2^k, 2^(k+1)) has 16 sub-buckets. It keeps the exact count and sum but no
// samples, and draws no randomness, so recording costs an increment and
// cannot perturb a simulation's random streams. The zero value is empty.
//
// A Histogram has no lock: the goroutine that advances its owner records
// into it, and reads or snapshots it only from that goroutine or at a
// barrier where the owner is idle.
type Histogram struct {
	counts [histBuckets]int64
	n, sum int64
}

// Bucket is one non-empty histogram bucket: the largest value it holds and
// its count.
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// bucketOf returns the index of the bucket holding v >= 0: the shift that
// leaves v's top five bits, times 16, plus those five bits.
func bucketOf(v int64) int {
	shift := max(bits.Len64(uint64(v)), histSubBits+1) - (histSubBits + 1)
	return shift<<histSubBits + int(uint64(v)>>shift)
}

// bucketLo returns the smallest value of bucket i and the log2 of its width.
func bucketLo(i int) (lo int64, shift int) {
	shift = max(i>>histSubBits, 1) - 1
	return int64(i-shift<<histSubBits) << shift, shift
}

// bucketMid returns the midpoint of bucket i, the inverse of bucketOf.
func bucketMid(i int) int64 {
	lo, shift := bucketLo(i)
	return lo + (1<<shift)>>1
}

// Record adds one observation v >= 0.
func (h *Histogram) Record(v int64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.n }

// Sum returns the exact sum of the observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Mean returns the exact mean observation, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the midpoint of the bucket holding the nearest-rank q-th
// observation, or 0 when empty.
func (h *Histogram) Quantile(q float64) int64 { return Quantile(h.Buckets(), h.n, q) }

// Buckets returns the non-empty buckets in increasing order.
func (h *Histogram) Buckets() []Bucket {
	n := 0
	for _, c := range h.counts {
		if c != 0 {
			n++
		}
	}
	bs := make([]Bucket, 0, n)
	for i, c := range h.counts {
		if c != 0 {
			lo, shift := bucketLo(i)
			bs = append(bs, Bucket{Le: lo + (1<<shift - 1), Count: c})
		}
	}
	return bs
}

// Quantile returns the midpoint of the bucket holding the nearest-rank q-th
// of n observations, rank ⌊q·(n−1)⌋, from their non-empty buckets in
// increasing order; 0 when n is 0. It is the repository's one quantile
// rule.
func Quantile(bs []Bucket, n int64, q float64) int64 {
	if n == 0 {
		return 0
	}
	rank := min(max(int64(q*float64(n-1)), 0), n-1)
	for _, b := range bs {
		if rank < b.Count {
			return bucketMid(bucketOf(b.Le))
		}
		rank -= b.Count
	}
	panic("metrics: bucket counts do not sum to their total")
}
