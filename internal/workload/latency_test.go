package workload

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"tmo/internal/dist"
	"tmo/internal/vclock"
)

// within32 reports whether got is within 1/32 of want.
func within32(got, want uint64) bool {
	return math.Abs(float64(got)-float64(want)) <= float64(want)/32
}

func TestLatencyHist(t *testing.T) {
	vs := []uint64{0, 15, 16, 31, 32}
	for k := 6; k < 63; k++ {
		vs = append(vs, 1<<k-1, 1<<k)
	}
	vs = append(vs, math.MaxInt64)
	prev := -1
	for _, v := range vs {
		i := latBucket(v)
		if i < prev || i >= latBuckets {
			t.Fatalf("latBucket(%d) = %d after %d, want monotone in [0, %d)", v, i, prev, latBuckets)
		}
		if mid := latMid(i); !within32(mid, v) || latBucket(mid) != i {
			t.Fatalf("bucket %d of %d has midpoint %d", i, v, mid)
		}
		prev = i
	}

	var h latencyHist
	if got := h.quantile(0.5); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	rng := rand.New(dist.NewPCG(7))
	ln := dist.FitLogNormal(2*vclock.Millisecond, 20*vclock.Millisecond)
	ref := make([]uint64, 20000)
	for i := range ref {
		d := ln.Sample(rng)
		h.record(d)
		ref[i] = uint64(d)
	}
	slices.Sort(ref)
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		want := ref[int(q*float64(len(ref)-1))]
		if got := h.quantile(q); !within32(uint64(got), want) {
			t.Errorf("quantile(%v) = %d, want %d within 1/32", q, got, want)
		}
	}

	if allocs := testing.AllocsPerRun(100, func() { h.record(1234) }); allocs != 0 {
		t.Fatalf("record allocates %v times, want 0", allocs)
	}
}
