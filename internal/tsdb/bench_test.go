package tsdb

import (
	"testing"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// BenchmarkScrapeSnapshot times one scrape of a tiered host's registry
// snapshot into a store that keeps every sample, the per-host cost of a
// fleet scrape round. The snapshot is taken once, after
// two virtual minutes, so only the flattening and appends are timed.
func BenchmarkScrapeSnapshot(b *testing.B) {
	const mib = 1 << 20
	sys := core.New(core.Options{
		Mode:          core.ModeTiered,
		CapacityBytes: 256 * mib,
		Tiers: []backend.TierSpec{
			{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 8 * mib},
			{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: 16 * mib},
			{Kind: backend.TierSSD, CapacityBytes: 1024 * mib},
		},
		Seed: 3,
	})
	sys.AddWorkload("feed")
	sys.Run(2 * vclock.Minute)
	snap := sys.TelemetrySnapshot()
	sc := &Scraper{DB: New(Config{})}
	base := []telemetry.Label{{Key: "host", Value: "h0"}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.ScrapeSnapshot(vclock.Time(i)*vclock.Time(vclock.Second), base, snap)
	}
}
