package metrics

import (
	"encoding/binary"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"tmo/internal/dist"
	"tmo/internal/vclock"
)

// within32 reports whether got is within 1/32 of want.
func within32(got, want int64) bool {
	return math.Abs(float64(got)-float64(want)) <= float64(want)/32
}

// checkHistogram holds h, which recorded vs, to its contract: buckets
// monotone in the value, each bucket's midpoint inside the bucket and
// within 1/32 of every value it holds, the exact count and (wrapping) sum,
// exactly the non-empty buckets in increasing order with each one's
// largest value and count, and every quantile within 1/32 of the sorted
// nearest-rank reference.
func checkHistogram(t *testing.T, h *Histogram, vs []int64, qs ...float64) {
	t.Helper()
	ref := slices.Clone(vs)
	slices.Sort(ref)
	var sum int64
	prev := -1
	for _, v := range ref {
		i := bucketOf(v)
		if i < prev || i >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d after %d, want monotone in [0, %d)", v, i, prev, histBuckets)
		}
		if mid := bucketMid(i); !within32(mid, v) || bucketOf(mid) != i {
			t.Fatalf("bucket %d of %d has midpoint %d", i, v, mid)
		}
		prev = i
		sum += v
	}
	if h.Count() != int64(len(vs)) || h.Sum() != sum {
		t.Fatalf("count/sum = %d/%d, want %d/%d", h.Count(), h.Sum(), len(vs), sum)
	}
	counts := make(map[int]int64)
	for _, v := range vs {
		counts[bucketOf(v)]++
	}
	bs := h.Buckets()
	for i, b := range bs {
		if i > 0 && b.Le <= bs[i-1].Le {
			t.Fatalf("buckets %v not increasing", bs)
		}
		// Le is the largest value of the bucket holding it.
		j := bucketOf(b.Le)
		if b.Count != counts[j] || (b.Le < math.MaxInt64 && bucketOf(b.Le+1) == j) {
			t.Fatalf("bucket %d with le %d holds %d, want %d and le its largest value", j, b.Le, b.Count, counts[j])
		}
		delete(counts, j)
	}
	if len(counts) != 0 {
		t.Fatalf("buckets %v miss recorded buckets %v", bs, counts)
	}
	if len(ref) == 0 {
		return
	}
	for _, q := range qs {
		want := ref[int(q*float64(len(ref)-1))]
		if got := h.Quantile(q); !within32(got, want) {
			t.Errorf("Quantile(%v) = %d, want %d within 1/32", q, got, want)
		}
	}
}

func TestHistogram(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || len(h.Buckets()) != 0 {
		t.Fatalf("empty histogram reads %d/%v/%v, want zeros", h.Quantile(0.5), h.Mean(), h.Buckets())
	}
	vs := []int64{0, 15, 16, 31, 32}
	for k := 6; k < 63; k++ {
		vs = append(vs, 1<<k-1, 1<<k)
	}
	vs = append(vs, math.MaxInt64)
	for _, v := range vs {
		h.Record(v)
	}
	checkHistogram(t, &h, vs, 0, 1)

	h = Histogram{}
	rng := rand.New(dist.NewPCG(7))
	ln := dist.FitLogNormal(2*vclock.Millisecond, 20*vclock.Millisecond)
	vs = make([]int64, 20000)
	for i := range vs {
		vs[i] = int64(ln.Sample(rng))
		h.Record(vs[i])
	}
	checkHistogram(t, &h, vs, 0, 0.5, 0.9, 0.99, 1)
	if want := float64(h.Sum()) / float64(len(vs)); h.Mean() != want {
		t.Fatalf("mean = %v, want %v", h.Mean(), want)
	}

	if allocs := testing.AllocsPerRun(100, func() { h.Record(1234) }); allocs != 0 {
		t.Fatalf("Record allocates %v times, want 0", allocs)
	}
}

// FuzzHistogram records arbitrary non-negative int64 values, one per eight
// input bytes, and holds the histogram to checkHistogram at the fuzzed
// quantile and at the ones the repository reads.
func FuzzHistogram(f *testing.F) {
	f.Add([]byte{}, 0.5)
	f.Add(make([]byte, 8), 0.0)                                       // 0
	f.Add(binary.LittleEndian.AppendUint64(nil, math.MaxUint64), 1.0) // MaxInt64
	f.Add(binary.LittleEndian.AppendUint64(make([]byte, 8), math.MaxUint64), 0.99)
	f.Add([]byte("log-linear buckets hold every int64 at 1/32 resolution"), 0.9)
	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		if !(q >= 0 && q <= 1) {
			q = 0.5
		}
		var h Histogram
		var vs []int64
		for ; len(data) >= 8; data = data[8:] {
			v := int64(binary.LittleEndian.Uint64(data) >> 1)
			h.Record(v)
			vs = append(vs, v)
		}
		checkHistogram(t, &h, vs, q, 0, 0.5, 0.9, 0.99, 1)
	})
}

// benchCount keeps BenchmarkHistogramRecord's histogram live.
var benchCount int64

func BenchmarkHistogramRecord(b *testing.B) {
	var h Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i*2654435761) & (1<<24 - 1))
	}
	benchCount = h.Count()
}
