package telemetry

import (
	"fmt"
	"testing"

	"tmo/internal/metrics"
)

// BenchmarkSnapshot times one snapshot of a registry shaped like a tiered
// host's: 44 counter functions, 15 gauge functions and 8 histograms, each
// histogram holding a spread of observations across some 20 buckets.
func BenchmarkSnapshot(b *testing.B) {
	r := NewRegistry()
	var n int64
	for i := 0; i < 44; i++ {
		r.CounterFunc(fmt.Sprintf("layer.count_%02d", i), func() int64 { return n })
	}
	for i := 0; i < 15; i++ {
		r.GaugeFunc(fmt.Sprintf("layer.level_%02d", i), func() float64 { return 1.5 },
			Label{Key: "tier", Value: fmt.Sprint(i % 3)})
	}
	hs := make([]metrics.Histogram, 8)
	for i := range hs {
		r.Histogram(fmt.Sprintf("layer.latency_us_%d", i), &hs[i])
		for v := int64(1); v < 1e6; v *= 2 {
			hs[i].Record(v)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n++
		if s := r.Snapshot(); len(s.Metrics) != 44+15+8 {
			b.Fatalf("snapshot holds %d metrics", len(s.Metrics))
		}
	}
}
