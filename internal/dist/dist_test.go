package dist

import (
	"math"
	"math/rand/v2"
	"sort"
	"testing"

	"tmo/internal/vclock"
)

func TestNewRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
	c := NewRand(43)
	same := true
	for i := 0; i < 10; i++ {
		if NewRand(42).Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatalf("different seeds produced identical streams")
	}
}

func TestFitLogNormalQuantiles(t *testing.T) {
	median := 500 * vclock.Microsecond
	p99 := 5 * vclock.Millisecond
	l := FitLogNormal(median, p99)
	if got := math.Exp(l.Mu); math.Abs(got-float64(median)) > 1 {
		t.Fatalf("exp(Mu) = %v, want the median %v", got, median)
	}
	if got := math.Exp(l.Mu + l.Sigma*z99); math.Abs(got-float64(p99))/float64(p99) > 0.01 {
		t.Fatalf("exp(Mu + Sigma*z99) = %v, want the p99 %v", got, p99)
	}
}

func TestFitLogNormalEmpirical(t *testing.T) {
	median := 1 * vclock.Millisecond
	p99 := 9300 * vclock.Microsecond
	l := FitLogNormal(median, p99)
	r := NewRand(3)
	const n = 50000
	samples := make([]float64, n)
	for i := range samples {
		samples[i] = float64(l.Sample(r))
	}
	sort.Float64s(samples)
	empMedian := samples[n/2]
	empP99 := samples[int(0.99*n)]
	if math.Abs(empMedian-float64(median))/float64(median) > 0.05 {
		t.Fatalf("empirical median %v, want ~%v", empMedian, median)
	}
	if math.Abs(empP99-float64(p99))/float64(p99) > 0.10 {
		t.Fatalf("empirical p99 %v, want ~%v", empP99, p99)
	}
}

func TestFitLogNormalPanicsOnBadInput(t *testing.T) {
	for _, tc := range []struct{ median, p99 vclock.Duration }{
		{0, 100},
		{-5, 100},
		{100, 50},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("FitLogNormal(%v, %v) did not panic", tc.median, tc.p99)
				}
			}()
			FitLogNormal(tc.median, tc.p99)
		}()
	}
}

func TestLogNormalMean(t *testing.T) {
	l := FitLogNormal(100, 1000)
	r := NewRand(4)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += float64(l.Sample(r))
	}
	emp := sum / n
	want := math.Exp(l.Mu + l.Sigma*l.Sigma/2)
	if math.Abs(emp-want)/want > 0.05 {
		t.Fatalf("empirical mean %v, analytic %v", emp, want)
	}
}

// Property: log-normal samples are always at least 1 microsecond (the clock
// resolution clamp), so a fault can never take zero or negative time.
func TestLogNormalSamplePositive(t *testing.T) {
	l := FitLogNormal(2, 40)
	r := NewRand(6)
	for i := 0; i < 10000; i++ {
		if l.Sample(r) < 1 {
			t.Fatalf("sample below clock resolution")
		}
	}
}

// stdPCG is the stdlib generator NewPCG(seed) must reproduce.
func stdPCG(seed uint64) *rand.PCG {
	return rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)
}

// sameState reports whether src and ref are in the same state, judged by
// their next 64 outputs, which it consumes.
func sameState(src *PCG, ref *rand.PCG) bool {
	for i := 0; i < 64; i++ {
		if src.Uint64() != ref.Uint64() {
			return false
		}
	}
	return true
}

// TestDrawsMatchRand interleaves Uint64N and Float64 on one source against
// the stdlib Rand over math/rand/v2's own PCG, identically seeded: every
// value and the final source state must agree. n = 2^63+1 forces the
// rejection loop.
func TestDrawsMatchRand(t *testing.T) {
	ns := []uint64{1, 2, 3, 7, 1 << 10, 1 << 40, 1 << 63, 1<<63 + 1}
	src, ref := NewPCG(7), stdPCG(7)
	r := rand.New(ref)
	for i := 0; i < 100000; i++ {
		n := ns[i%len(ns)]
		if got, want := Uint64N(src, n), r.Uint64N(n); got != want {
			t.Fatalf("draw %d: Uint64N(%d) = %d, rand gives %d", i, n, got, want)
		}
		if i%3 == 0 {
			if got, want := Float64(src), r.Float64(); got != want {
				t.Fatalf("draw %d: Float64 = %v, rand gives %v", i, got, want)
			}
		}
	}
	if !sameState(src, ref) {
		t.Fatalf("source states diverged")
	}
}

// FuzzPCGMatchesStdlib drives a PCG and math/rand/v2's PCG from the same
// seed through n rounds of Uint64, Uint64N (bound from the last draw, so
// small, power-of-two and rejection-prone bounds all occur), Float64 and a
// Shuffle through rand.New, and requires equal values and final states.
func FuzzPCGMatchesStdlib(f *testing.F) {
	f.Add(uint64(7), uint16(100))
	f.Add(uint64(0), uint16(1))
	f.Add(^uint64(0), uint16(1000))
	f.Fuzz(func(t *testing.T, seed uint64, n uint16) {
		src, ref := NewPCG(seed), stdPCG(seed)
		r, rr := rand.New(src), rand.New(ref)
		for i := 0; i < int(n%2048); i++ {
			a, b := src.Uint64(), ref.Uint64()
			if a != b {
				t.Fatalf("seed %d round %d: Uint64 = %d, stdlib %d", seed, i, a, b)
			}
			bound := a>>(a%64) | 1<<(a%3)
			if x, y := Uint64N(src, bound), rr.Uint64N(bound); x != y {
				t.Fatalf("seed %d round %d: Uint64N(%d) = %d, stdlib %d", seed, i, bound, x, y)
			}
			if x, y := Float64(src), rr.Float64(); x != y {
				t.Fatalf("seed %d round %d: Float64 = %v, stdlib %v", seed, i, x, y)
			}
			if i%16 == 0 {
				var p, q [9]int
				for k := range p {
					p[k], q[k] = k, k
				}
				r.Shuffle(len(p), func(x, y int) { p[x], p[y] = p[y], p[x] })
				rr.Shuffle(len(q), func(x, y int) { q[x], q[y] = q[y], q[x] })
				if p != q {
					t.Fatalf("seed %d round %d: Shuffle gives %v, stdlib %v", seed, i, p, q)
				}
			}
		}
		if !sameState(src, ref) {
			t.Fatalf("seed %d: states diverged after %d rounds", seed, n%2048)
		}
	})
}

func TestUint64NZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Uint64N(0) did not panic")
		}
	}()
	Uint64N(NewPCG(1), 0)
}
