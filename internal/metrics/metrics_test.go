package metrics

import (
	"math"
	"testing"
	"testing/quick"

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
