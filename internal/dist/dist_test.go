package dist

import (
	"bytes"
	"math"
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"

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

func TestConstant(t *testing.T) {
	c := Constant(7 * vclock.Millisecond)
	r := NewRand(1)
	if c.Sample(r) != 7*vclock.Millisecond || c.Quantile(0.99) != 7*vclock.Millisecond || c.Mean() != 7*vclock.Millisecond {
		t.Fatalf("constant distribution not constant")
	}
}

func TestUniformBoundsAndMean(t *testing.T) {
	u := Uniform{Lo: 10, Hi: 20}
	r := NewRand(2)
	var sum float64
	const n = 20000
	for i := 0; i < n; i++ {
		v := u.Sample(r)
		if v < 10 || v > 20 {
			t.Fatalf("sample %v out of [10,20]", v)
		}
		sum += float64(v)
	}
	if mean := sum / n; math.Abs(mean-15) > 0.2 {
		t.Fatalf("empirical mean %v, want ~15", mean)
	}
	if u.Mean() != 15 {
		t.Fatalf("Mean() = %v", u.Mean())
	}
	if u.Quantile(0.5) != 15 {
		t.Fatalf("Quantile(0.5) = %v", u.Quantile(0.5))
	}
}

func TestUniformDegenerate(t *testing.T) {
	u := Uniform{Lo: 5, Hi: 5}
	if got := u.Sample(NewRand(1)); got != 5 {
		t.Fatalf("degenerate uniform sample = %v", got)
	}
}

func TestFitLogNormalQuantiles(t *testing.T) {
	median := 500 * vclock.Microsecond
	p99 := 5 * vclock.Millisecond
	l := FitLogNormal(median, p99)
	if got := l.Quantile(0.5); math.Abs(float64(got-median)) > 1 {
		t.Fatalf("median quantile = %v, want %v", got, median)
	}
	if got := l.Quantile(0.99); math.Abs(float64(got-p99))/float64(p99) > 0.01 {
		t.Fatalf("p99 quantile = %v, want %v", got, p99)
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
	want := float64(l.Mean())
	if math.Abs(emp-want)/want > 0.05 {
		t.Fatalf("empirical mean %v, analytic %v", emp, want)
	}
}

func TestExponential(t *testing.T) {
	e := Exponential{MeanDur: 200 * vclock.Microsecond}
	r := NewRand(5)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		sum += float64(e.Sample(r))
	}
	if emp := sum / n; math.Abs(emp-200)/200 > 0.05 {
		t.Fatalf("empirical mean %v, want ~200", emp)
	}
	// Median of an exponential is mean*ln(2).
	if got := e.Quantile(0.5); math.Abs(float64(got)-200*math.Ln2) > 1 {
		t.Fatalf("Quantile(0.5) = %v", got)
	}
}

func TestScaled(t *testing.T) {
	s := Scaled{Base: Constant(100), Factor: 2.5}
	if got := s.Sample(NewRand(1)); got != 250 {
		t.Fatalf("scaled sample = %v, want 250", got)
	}
	if got := s.Quantile(0.9); got != 250 {
		t.Fatalf("scaled quantile = %v, want 250", got)
	}
	if got := s.Mean(); got != 250 {
		t.Fatalf("scaled mean = %v, want 250", got)
	}
}

func TestNormQuantileSymmetry(t *testing.T) {
	f := func(raw uint16) bool {
		q := 0.001 + 0.998*float64(raw)/65535.0
		return math.Abs(normQuantile(q)+normQuantile(1-q)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormQuantileKnownValues(t *testing.T) {
	for _, tc := range []struct{ q, want float64 }{
		{0.5, 0},
		{0.99, 2.3263478740},
		{0.975, 1.9599639845},
		{0.9, 1.2815515655},
	} {
		if got := normQuantile(tc.q); math.Abs(got-tc.want) > 1e-6 {
			t.Errorf("normQuantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

// Property: quantiles of every sampler are non-decreasing in q.
func TestQuantileMonotone(t *testing.T) {
	samplers := []Sampler{
		Constant(50),
		Uniform{Lo: 10, Hi: 1000},
		FitLogNormal(470, 9300),
		Exponential{MeanDur: 300},
	}
	f := func(aRaw, bRaw uint16) bool {
		qa := 0.001 + 0.998*float64(aRaw)/65535.0
		qb := 0.001 + 0.998*float64(bRaw)/65535.0
		if qa > qb {
			qa, qb = qb, qa
		}
		for _, s := range samplers {
			if s.Quantile(qa) > s.Quantile(qb) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
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
