// Package slo implements multi-window burn-rate monitors over the tsdb
// store, in the style of SRE fast/slow-burn alerting: an alert fires when
// both a short recent window and a longer window burn error budget faster
// than their thresholds, giving early warning with debounce.
//
// The monitors complement — not replace — the rollout barrier guardrails.
// Guardrails judge stage-cumulative aggregates, so a regression that ramps
// (PSI climbing as Senpai over-reclaims, swap filling toward the latch)
// crosses an instantaneous window threshold before it drags the cumulative
// mean over the line. The burn monitors read the same series the barrier
// wrote and fire in the gap, which is exactly the early-warning role fleet
// monitoring plays in TMO's operation (the paper's guardrails were watched
// by humans and dashboards long before any automated rollback).
package slo

import (
	"fmt"

	"tmo/internal/metrics"
	"tmo/internal/telemetry"
	"tmo/internal/tsdb"
	"tmo/internal/vclock"
)

// Kind selects how a monitor turns a window of samples into a burn rate.
type Kind int

const (
	// Upper burns when the windowed mean approaches the budget from
	// below: burn = mean / budget. PSI overshoot, fault p99.
	Upper Kind = iota
	// Lower burns when the windowed mean dips toward the budget from
	// above: burn = budget / mean. RPS ratio vs the control cohort.
	Lower
	// Slope burns when the linear trend of the window, projected Horizon
	// ahead, would cross the budget: burn = projected / budget. Swap
	// exhaustion (utilisation climbing toward the latch fraction).
	Slope
)

// Monitor is one burn-rate rule over a metric's series.
type Monitor struct {
	// Name identifies the monitor in alerts and counters.
	Name string
	// Metric is the tsdb metric the monitor reads; every series of it is
	// judged on its own.
	Metric string
	// Kind selects the burn computation.
	Kind Kind
	// Budget is the error budget: the threshold value the metric must
	// stay below (Upper, Slope) or above (Lower). A monitor with
	// Budget <= 0 is disabled, mirroring guardrail zero semantics.
	Budget float64
	// Horizon is the Slope projection distance; Slope monitors set it.
	Horizon vclock.Duration
}

// Every monitor judges two windows, in samples (scrapes), and alerts when
// both burn at or past their thresholds. The slow window uses however many
// samples exist when the series is younger than slowWindow.
const (
	fastWindow = 1
	slowWindow = 4
	fastBurn   = 1.0
	slowBurn   = 0.5
)

// fast returns the monitor's fast window. A Slope burn needs two samples to
// see a trend, so its fast window is two.
func (m Monitor) fast() int {
	if m.Kind == Slope {
		return 2
	}
	return fastWindow
}

// burn computes the burn rate over the last n samples of pts.
func (m Monitor) burn(pts []metrics.Point, n int) float64 {
	if len(pts) == 0 {
		return 0
	}
	if len(pts) > n {
		pts = pts[len(pts)-n:]
	}
	switch m.Kind {
	case Upper:
		return mean(pts) / m.Budget
	case Lower:
		mu := mean(pts)
		if mu <= 0 {
			return 1e12 // total outage: infinite burn, kept finite for JSON
		}
		return m.Budget / mu
	case Slope:
		// A trend needs evidence: with fewer than two samples, or samples
		// carrying no time spread, there is no slope to project — burn 0
		// rather than alerting off a single point's level.
		if len(pts) < 2 {
			return 0
		}
		first, last := pts[0], pts[len(pts)-1]
		dt := last.T.Sub(first.T).Seconds()
		if dt <= 0 {
			return 0
		}
		proj := last.V
		if slope := (last.V - first.V) / dt; slope > 0 {
			proj = last.V + slope*m.Horizon.Seconds()
		}
		return proj / m.Budget
	}
	return 0
}

func mean(pts []metrics.Point) float64 {
	s := 0.0
	for _, p := range pts {
		s += p.V
	}
	return s / float64(len(pts))
}

// Alert is one rising-edge burn alert.
type Alert struct {
	Monitor string
	Series  string // full series identity the alert fired on
	T       vclock.Time
	Fast    float64 // fast-window burn rate
	Slow    float64 // slow-window burn rate
}

// Detail renders the alert's numbers for event logs.
func (a Alert) Detail() string {
	return fmt.Sprintf("fast-burn %.2f slow-burn %.2f", a.Fast, a.Slow)
}

// Evaluator runs a monitor set against a store. Alerts are edge-triggered:
// a series alerting on consecutive evaluations reports once, re-arming when
// its burn drops below threshold. Eval is driven from the single-threaded
// barrier path and is not safe for concurrent use.
type Evaluator struct {
	DB       *tsdb.DB
	Monitors []Monitor
	// Telemetry, when non-nil, counts alerts under
	// "slo.burn_alerts"{monitor=...}.
	Telemetry *telemetry.Registry

	burning map[string]bool
}

// Eval evaluates every monitor at instant now and returns the new alerts,
// in (monitor, series) order.
func (e *Evaluator) Eval(now vclock.Time) []Alert {
	if e.burning == nil {
		e.burning = make(map[string]bool)
	}
	var alerts []Alert
	for _, m := range e.Monitors {
		if m.Budget <= 0 {
			continue
		}
		for _, s := range e.DB.Select(m.Metric) {
			if len(s.Points) < m.fast() {
				continue
			}
			fast := m.burn(s.Points, m.fast())
			slow := m.burn(s.Points, slowWindow)
			key := m.Name + "|" + s.ID()
			hot := fast >= fastBurn && slow >= slowBurn
			if hot && !e.burning[key] {
				alerts = append(alerts, Alert{Monitor: m.Name, Series: s.ID(), T: now, Fast: fast, Slow: slow})
				if e.Telemetry != nil {
					e.Telemetry.Counter("slo.burn_alerts",
						telemetry.Label{Key: "monitor", Value: m.Name}).Inc()
				}
			}
			e.burning[key] = hot
		}
	}
	return alerts
}
