package tsdb

import (
	"fmt"
	"strings"

	"tmo/internal/metrics"
	"tmo/internal/textplot"
)

// shortLabels renders a series' labels compactly for chart legends:
// "candidate=cand-1,device=F". Falls back to the metric name when bare.
func shortLabels(s Series) string {
	if len(s.Labels) == 0 {
		return s.Metric
	}
	parts := make([]string, len(s.Labels))
	for i, l := range s.Labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return strings.Join(parts, ",")
}

// Dashboard renders an ASCII chart per listed metric, each overlaying that
// metric's series (one glyph per series — per cohort, candidate, or host
// depending on the labels). A nil metric list charts every metric in the
// store. Metrics with no samples render a "(no data)" chart.
func Dashboard(db *DB, metricNames []string, width, height int) string {
	if metricNames == nil {
		metricNames = db.Metrics()
	}
	var b strings.Builder
	for _, name := range metricNames {
		group := db.Select(name)
		plot := make([]*metrics.Series, 0, len(group))
		for _, s := range group {
			plot = append(plot, &metrics.Series{Name: shortLabels(s), Points: s.Points})
		}
		b.WriteString(textplot.Chart(name, plot, width, height))
		b.WriteString("\n")
	}
	return b.String()
}

// Summary renders a per-metric table: series count, retained samples, and
// the min/max of the newest sample across series — the at-a-glance index
// of what a store holds.
func Summary(db *DB) string {
	rows := [][]string{{"metric", "series", "samples", "last min", "last max"}}
	for _, name := range db.Metrics() {
		group := db.Select(name)
		samples := 0
		lo, hi := 0.0, 0.0
		for i, s := range group {
			samples += len(s.Points)
			v := s.Last().V
			if i == 0 || v < lo {
				lo = v
			}
			if i == 0 || v > hi {
				hi = v
			}
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", len(group)),
			fmt.Sprintf("%d", samples),
			fmt.Sprintf("%.4g", lo),
			fmt.Sprintf("%.4g", hi),
		})
	}
	return textplot.Table(rows)
}
