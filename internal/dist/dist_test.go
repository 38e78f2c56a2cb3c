package dist

import (
	"bytes"
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

// TestDrawsMatchRand interleaves Uint64N and Float64 on one source against
// the stdlib Rand over an identically seeded source: every value and the
// final source state must agree. n = 2^63+1 forces the rejection loop.
func TestDrawsMatchRand(t *testing.T) {
	ns := []uint64{1, 2, 3, 7, 1 << 10, 1 << 40, 1 << 63, 1<<63 + 1}
	src, ref := NewPCG(7), NewPCG(7)
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
	a, _ := src.MarshalBinary()
	b, _ := ref.MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatalf("source states diverged")
	}
}

func TestUint64NZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("Uint64N(0) did not panic")
		}
	}()
	Uint64N(NewPCG(1), 0)
}
