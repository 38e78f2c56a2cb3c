package metrics

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"tmo/internal/dist"
	"tmo/internal/vclock"
)

func TestRateMeterSteadyRate(t *testing.T) {
	m := NewRateMeter(vclock.Second, 10)
	now := vclock.Time(0)
	// 100 units per second for 20 seconds.
	for i := 0; i < 200; i++ {
		m.Add(now, 10)
		now = now.Add(100 * vclock.Millisecond)
	}
	rate := m.Rate(now)
	if math.Abs(rate-100)/100 > 0.05 {
		t.Fatalf("steady rate = %v, want ~100", rate)
	}
}

func TestRateMeterDecaysAfterStop(t *testing.T) {
	m := NewRateMeter(vclock.Second, 5)
	now := vclock.Time(0)
	for i := 0; i < 50; i++ {
		m.Add(now, 10)
		now = now.Add(100 * vclock.Millisecond)
	}
	if r := m.Rate(now); r < 50 {
		t.Fatalf("rate before stop = %v", r)
	}
	// Advance past the whole window with no events.
	now = now.Add(10 * vclock.Second)
	if r := m.Rate(now); r != 0 {
		t.Fatalf("rate after idle window = %v, want 0", r)
	}
}

func TestRateMeterEmptyIsZero(t *testing.T) {
	m := NewRateMeter(vclock.Second, 4)
	if r := m.Rate(vclock.Time(5 * vclock.Second)); r != 0 {
		t.Fatalf("empty meter rate = %v", r)
	}
}

func TestRateMeterBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("no panic for invalid config")
		}
	}()
	NewRateMeter(vclock.Second, 1)
}

func TestReservoirExact(t *testing.T) {
	r := NewReservoir(100, dist.NewRand(1).Int64N)
	for i := 1; i <= 100; i++ {
		r.Add(float64(i))
	}
	if r.Count() != 100 {
		t.Fatalf("Count = %d", r.Count())
	}
	if q := r.Quantile(0.5); math.Abs(q-50) > 1.5 {
		t.Fatalf("median = %v, want ~50", q)
	}
	if q := r.Quantile(0); q != 1 {
		t.Fatalf("min = %v, want 1", q)
	}
	if q := r.Quantile(1); q != 100 {
		t.Fatalf("max = %v, want 100", q)
	}
	if m := r.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
}

func TestReservoirSampling(t *testing.T) {
	r := NewReservoir(1000, dist.NewRand(2).Int64N)
	for i := 0; i < 100000; i++ {
		r.Add(float64(i % 1000))
	}
	// Uniform 0..999: median should be near 500.
	if q := r.Quantile(0.5); math.Abs(q-500) > 60 {
		t.Fatalf("sampled median = %v, want ~500", q)
	}
}

func TestReservoirDeterministicUnderFixedSeed(t *testing.T) {
	// Two reservoirs fed the same stream from identically seeded sources
	// must retain identical samples — experiment runs must be reproducible.
	a := NewReservoir(256, dist.NewRand(42).Int64N)
	b := NewReservoir(256, dist.NewRand(42).Int64N)
	src := dist.NewRand(9)
	for i := 0; i < 20000; i++ {
		v := float64(src.Int64N(1 << 20))
		a.Add(v)
		b.Add(v)
	}
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Fatalf("q=%v diverged: %v vs %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
	if a.Mean() != b.Mean() {
		t.Fatalf("means diverged: %v vs %v", a.Mean(), b.Mean())
	}
}

func TestReservoirQuantilesVsSortedReference(t *testing.T) {
	// 10k samples into a 4096-slot reservoir: P50/P90/P99 must land close
	// to the exact quantiles of the full sorted stream.
	const n = 10000
	r := NewReservoir(4096, dist.NewRand(11).Int64N)
	src := dist.NewRand(13)
	all := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		// Skewed positive distribution, like a latency stream.
		v := float64(src.Int64N(1000))
		v = v * v / 1000
		r.Add(v)
		all = append(all, v)
	}
	sort.Float64s(all)
	for _, q := range []float64{0.50, 0.90, 0.99} {
		exact := all[int(q*float64(n-1))]
		got := r.Quantile(q)
		// The reservoir keeps ~41% of the stream; sampling error at these
		// quantiles should stay within a few percent of the value range.
		tol := 0.05 * (all[n-1] - all[0])
		if math.Abs(got-exact) > tol {
			t.Fatalf("q=%v: reservoir %v vs exact %v (tol %v)", q, got, exact, tol)
		}
	}
}

func TestReservoirEmpty(t *testing.T) {
	r := NewReservoir(10, dist.NewRand(3).Int64N)
	if r.Quantile(0.5) != 0 || r.Mean() != 0 {
		t.Fatalf("empty reservoir should report 0")
	}
}

func TestSeriesRecordAndStats(t *testing.T) {
	var s Series
	for i := 0; i < 10; i++ {
		s.Record(vclock.Time(i)*vclock.Time(vclock.Second), float64(i))
	}
	if last := s.Points[len(s.Points)-1].V; last != 9 {
		t.Fatalf("last point = %v", last)
	}
	from, to := vclock.Time(2*vclock.Second), vclock.Time(4*vclock.Second)
	if m := s.MeanOver(from, to); m != 3 {
		t.Fatalf("MeanOver = %v, want 3", m)
	}
	if mn := s.MinOver(from, to); mn != 2 {
		t.Fatalf("MinOver = %v, want 2", mn)
	}
	if mx := s.MaxOver(from, to); mx != 4 {
		t.Fatalf("MaxOver = %v, want 4", mx)
	}
}

func TestSeriesEmptyWindows(t *testing.T) {
	var s Series
	if s.MeanOver(0, 100) != 0 || s.MinOver(0, 100) != 0 || s.MaxOver(0, 100) != 0 {
		t.Fatalf("empty series should report zeros")
	}
}

func TestSeriesDownsample(t *testing.T) {
	var s Series
	for i := 0; i < 1000; i++ {
		s.Record(vclock.Time(i), float64(i))
	}
	d := s.Downsample(10)
	if len(d.Points) != 10 {
		t.Fatalf("downsampled to %d points, want 10", len(d.Points))
	}
	// First bucket averages 0..99 -> 49.5.
	if math.Abs(d.Points[0].V-49.5) > 1e-9 {
		t.Fatalf("first bucket = %v, want 49.5", d.Points[0].V)
	}
	// Downsampling a short series is the identity.
	short := &Series{Points: []Point{{0, 1}, {1, 2}}}
	if got := short.Downsample(10); len(got.Points) != 2 {
		t.Fatalf("short series downsample changed length")
	}
}

// Property: a reservoir's quantiles always lie within the range of observed
// values, regardless of insertion order or volume.
func TestReservoirQuantileInRange(t *testing.T) {
	f := func(vals []float64, qRaw uint8) bool {
		if len(vals) == 0 {
			return true
		}
		r := NewReservoir(32, dist.NewRand(7).Int64N)
		mn, mx := math.Inf(1), math.Inf(-1)
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			r.Add(v)
			mn = math.Min(mn, v)
			mx = math.Max(mx, v)
		}
		q := float64(qRaw) / 255
		got := r.Quantile(q)
		return got >= mn && got <= mx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the rate meter never reports a negative rate.
func TestRateMeterNonNegative(t *testing.T) {
	f := func(events []uint8) bool {
		m := NewRateMeter(100*vclock.Millisecond, 8)
		now := vclock.Time(0)
		for _, e := range events {
			now = now.Add(vclock.Duration(e) * vclock.Millisecond)
			m.Add(now, float64(e))
			if m.Rate(now) < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
