package tsdb

import (
	"testing"

	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/metrics"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

func TestScraperKinds(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("reqs").Add(7)
	reg.GaugeFunc("temp", func() float64 { return 1.5 }, telemetry.Label{Key: "zone", Value: "a"})
	var h metrics.Histogram
	reg.Histogram("lat_us", &h)
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}

	db := New(Config{})
	sc := &Scraper{DB: db}
	base := []telemetry.Label{{Key: "host", Value: "h0"}}
	sc.Scrape(1000, base, reg)

	if s := db.Select("reqs"); len(s) != 1 || s[0].Last().V != 7 || s[0].ID() != `reqs{host="h0"}` {
		t.Fatalf("counter scrape: %+v", s)
	}
	if s := db.Select("temp"); len(s) != 1 || s[0].ID() != `temp{host="h0",zone="a"}` {
		t.Fatalf("gauge labels not merged: %+v", s)
	}
	for _, m := range []string{"lat_us.count", "lat_us.sum", "lat_us.p50", "lat_us.p99"} {
		if len(db.Select(m)) != 1 {
			t.Fatalf("histogram series %s missing; have %v", m, db.Metrics())
		}
	}
	if v := db.Select("lat_us.count")[0].Last().V; v != 100 {
		t.Fatalf("lat_us.count = %v", v)
	}
	if p99 := db.Select("lat_us.p99")[0].Last().V; p99 < 90 || p99 > 100 {
		t.Fatalf("lat_us.p99 = %v", p99)
	}
}

func TestScraperFilterAndBaseClash(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Counter("keep").Inc()
	reg.Counter("drop").Inc()
	reg.GaugeFunc("owned", func() float64 { return 1 }, telemetry.Label{Key: "host", Value: "self"})

	db := New(Config{})
	sc := &Scraper{DB: db, Filter: func(name string) bool { return name != "drop" }}
	sc.Scrape(0, []telemetry.Label{{Key: "host", Value: "base"}}, reg)

	if len(db.Select("drop")) != 0 {
		t.Fatalf("filter did not drop metric")
	}
	// The metric's own label wins the clash with the scrape base.
	if s := db.Select("owned"); len(s) != 1 || s[0].ID() != `owned{host="self"}` {
		t.Fatalf("label clash: %+v", s)
	}
}

// TestFleetScrapeConcurrent runs the scraper against fleet.MeasureAll's
// concurrent worker pool — the acceptance gate's race witness — and checks
// the per-host series land with deterministic identities.
func TestFleetScrapeConcurrent(t *testing.T) {
	specs := []fleet.Spec{
		{App: "web", Mode: core.ModeZswap, Scale: 0.2, Seed: 1},
		{App: "feed", Mode: core.ModeZswap, Scale: 0.2, Seed: 2},
		{App: "cache-a", Mode: core.ModeZswap, Scale: 0.2, Seed: 3},
		{App: "cache-b", Mode: core.ModeZswap, Scale: 0.2, Seed: 4},
	}
	warm, measure := 1*vclock.Minute, 1*vclock.Minute
	db := New(Config{})
	sc := &Scraper{DB: db, Filter: func(name string) bool {
		return name == "host.resident_bytes" || name == "mm.fault_latency_us"
	}}
	end := vclock.Time(0).Add(warm + measure)
	ms := fleet.MeasureAll(specs, warm, measure, func(i int, s fleet.Spec, snap telemetry.Snapshot) {
		sc.ScrapeSnapshot(end, []telemetry.Label{
			{Key: "host", Value: s.App},
			{Key: "device", Value: s.DeviceClass()},
		}, snap)
	})
	if len(ms) != len(specs) {
		t.Fatalf("measurements = %d", len(ms))
	}
	res := db.Select("host.resident_bytes")
	if len(res) != len(specs) {
		t.Fatalf("resident series = %d, want %d: %v", len(res), len(specs), db.Metrics())
	}
	for _, s := range res {
		if s.Last().V <= 0 {
			t.Fatalf("series %s has non-positive resident bytes", s.ID())
		}
	}
	if len(db.Select("mm.fault_latency_us.p99")) != len(specs) {
		t.Fatalf("fault p99 series missing: %v", db.Metrics())
	}
}
