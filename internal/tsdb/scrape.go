package tsdb

import (
	"fmt"

	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// DefaultQuantiles are the histogram quantiles a scrape materialises as
// series, matching the percentiles the paper reports (median and p99).
var DefaultQuantiles = []float64{0.5, 0.99}

// Scraper snapshots telemetry registries into a DB. Counters and gauges
// become one series each; histograms become .count, .sum, and one .pNN
// series per DefaultQuantiles entry (recomputing quantiles later from raw
// buckets would force the store to retain them — the scrape collapses the
// histogram the way production scrapers ship summaries).
//
// A Scraper is stateless apart from its DB and safe for concurrent use, so
// fleet worker goroutines can share one.
type Scraper struct {
	DB *DB
	// Filter, when non-nil, keeps only metrics whose name it accepts.
	Filter func(name string) bool
}

// Scrape snapshots reg at instant now, attaching base labels to every
// series. A metric's own labels are merged in after base, so a clash on
// key resolves to the metric's value.
func (sc *Scraper) Scrape(now vclock.Time, base []telemetry.Label, reg *telemetry.Registry) {
	sc.ScrapeSnapshot(now, base, reg.Snapshot())
}

// ScrapeSnapshot ingests an already-taken snapshot (fleet measurements
// capture one per host at measurement end).
func (sc *Scraper) ScrapeSnapshot(now vclock.Time, base []telemetry.Label, snap telemetry.Snapshot) {
	for _, m := range snap.Metrics {
		if sc.Filter != nil && !sc.Filter(m.Name) {
			continue
		}
		labels := mergeLabels(base, m.Labels)
		switch m.Kind {
		case "histogram":
			sc.DB.Append(now, m.Name+".count", labels, float64(m.Count))
			sc.DB.Append(now, m.Name+".sum", labels, m.Sum)
			for _, q := range DefaultQuantiles {
				sc.DB.Append(now, fmt.Sprintf("%s.p%02d", m.Name, int(q*100)), labels, m.Quantile(q))
			}
		default:
			sc.DB.Append(now, m.Name, labels, m.Value)
		}
	}
}

// mergeLabels overlays own onto base; own wins on key clashes.
func mergeLabels(base, own []telemetry.Label) []telemetry.Label {
	if len(own) == 0 {
		return base
	}
	out := make([]telemetry.Label, 0, len(base)+len(own))
	for _, b := range base {
		clash := false
		for _, o := range own {
			if o.Key == b.Key {
				clash = true
				break
			}
		}
		if !clash {
			out = append(out, b)
		}
	}
	return append(out, own...)
}
