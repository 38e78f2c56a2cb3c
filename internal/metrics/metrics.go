// Package metrics provides the small set of online estimators the simulator
// and controllers use: windowed rate meters, the log-linear histogram, and
// time-series recorders for experiment output.
//
// The Senpai controller consumes rate meters (SSD write MB/s for endurance
// regulation, Fig. 14), every layer counts its latencies and sizes in a
// Histogram (p99 latencies in Fig. 5, fault and stall distributions in the
// telemetry registry), and the experiment harness consumes time series.
package metrics

import (
	"fmt"
	"math"

	"tmo/internal/vclock"
)

// RateMeter measures an event or byte rate over a sliding window using fixed
// time buckets. It is the mechanism behind Senpai's SSD write-rate
// regulation: the controller reads the recent write rate and scales reclaim
// to keep it under the endurance threshold.
type RateMeter struct {
	bucketLen vclock.Duration
	buckets   []float64
	times     []vclock.Time // start time of each bucket
	valid     []bool        // whether the bucket has been part of the window
	cur       int
	curStart  vclock.Time
	started   bool
}

// NewRateMeter returns a meter with n buckets of the given length; the
// sliding window is n*bucketLen.
func NewRateMeter(bucketLen vclock.Duration, n int) *RateMeter {
	if n < 2 || bucketLen <= 0 {
		panic(fmt.Sprintf("metrics: invalid rate meter config n=%d len=%v", n, bucketLen))
	}
	return &RateMeter{
		bucketLen: bucketLen,
		buckets:   make([]float64, n),
		times:     make([]vclock.Time, n),
		valid:     make([]bool, n),
	}
}

// Add records amount at time now.
func (m *RateMeter) Add(now vclock.Time, amount float64) {
	m.roll(now)
	m.buckets[m.cur] += amount
}

// Rate returns the average rate per second over the window ending at now.
// Buckets older than the window are excluded.
func (m *RateMeter) Rate(now vclock.Time) float64 {
	m.roll(now)
	window := vclock.Duration(len(m.buckets)) * m.bucketLen
	horizon := now.Add(-window)
	var total float64
	var span vclock.Duration
	for i := range m.buckets {
		if !m.started || !m.valid[i] {
			continue
		}
		if m.times[i] < horizon && i != m.cur {
			continue
		}
		total += m.buckets[i]
		if i == m.cur {
			// Count the elapsed part of the current bucket; guard
			// against observations slightly ahead of the query time.
			if el := now.Sub(m.curStart); el > 0 {
				span += el
			}
		} else {
			span += m.bucketLen
		}
	}
	if span <= 0 {
		return 0
	}
	return total / span.Seconds()
}

// roll advances the current bucket pointer to cover time now, zeroing
// buckets that are being reused.
func (m *RateMeter) roll(now vclock.Time) {
	if !m.started {
		m.started = true
		m.curStart = now.Add(-vclock.Duration(int64(now) % int64(m.bucketLen)))
		m.times[m.cur] = m.curStart
		m.valid[m.cur] = true
		return
	}
	for now.Sub(m.curStart) >= m.bucketLen {
		m.curStart = m.curStart.Add(m.bucketLen)
		m.cur = (m.cur + 1) % len(m.buckets)
		m.buckets[m.cur] = 0
		m.times[m.cur] = m.curStart
		m.valid[m.cur] = true
	}
}

// Point is one (time, value) observation in a recorded series.
type Point struct {
	T vclock.Time
	V float64
}

// Series is an append-only time series recorded during an experiment run.
// The experiment harness renders these as the paper's figure panels.
type Series struct {
	Name   string
	Points []Point
}

// Record appends an observation.
func (s *Series) Record(t vclock.Time, v float64) {
	s.Points = append(s.Points, Point{T: t, V: v})
}

// MeanOver returns the mean of values recorded in [from, to].
func (s *Series) MeanOver(from, to vclock.Time) float64 {
	var sum float64
	var n int
	for _, p := range s.Points {
		if p.T >= from && p.T <= to {
			sum += p.V
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MinOver and MaxOver return extrema over [from, to]; they return 0 when the
// window holds no points.
func (s *Series) MinOver(from, to vclock.Time) float64 {
	mn, ok := math.Inf(1), false
	for _, p := range s.Points {
		if p.T >= from && p.T <= to {
			ok = true
			if p.V < mn {
				mn = p.V
			}
		}
	}
	if !ok {
		return 0
	}
	return mn
}

// MaxOver returns the maximum value recorded in [from, to], or 0 when the
// window holds no points.
func (s *Series) MaxOver(from, to vclock.Time) float64 {
	mx, ok := math.Inf(-1), false
	for _, p := range s.Points {
		if p.T >= from && p.T <= to {
			ok = true
			if p.V > mx {
				mx = p.V
			}
		}
	}
	if !ok {
		return 0
	}
	return mx
}

// Downsample returns a copy of the series reduced to at most n points by
// averaging fixed-size spans; it is used when rendering long runs.
func (s *Series) Downsample(n int) *Series {
	if n <= 0 || len(s.Points) <= n {
		out := &Series{Name: s.Name, Points: append([]Point(nil), s.Points...)}
		return out
	}
	out := &Series{Name: s.Name}
	span := float64(len(s.Points)) / float64(n)
	for i := 0; i < n; i++ {
		lo := int(float64(i) * span)
		hi := int(float64(i+1) * span)
		if hi > len(s.Points) {
			hi = len(s.Points)
		}
		if lo >= hi {
			continue
		}
		var sum float64
		for _, p := range s.Points[lo:hi] {
			sum += p.V
		}
		out.Points = append(out.Points, Point{
			T: s.Points[(lo+hi)/2].T,
			V: sum / float64(hi-lo),
		})
	}
	return out
}
