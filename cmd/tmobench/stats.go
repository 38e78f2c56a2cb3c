package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 when xs is empty, a metric nothing measured.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailBeyond is how many samples must lie above a reported tail value.
const tailBeyond = 10

// tail applies the benchmark's tail rule: report the highest percentile
// that still has tailBeyond samples beyond it, i.e. the (tailBeyond+1)-th
// largest sample. It returns that value and the percentile it sits at;
// ok is false when there are too few samples for any such percentile.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= tailBeyond {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}

// micros converts a wall-clock duration to float microseconds.
func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
