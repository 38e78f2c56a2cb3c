package rollout

import (
	"fmt"
	"math"
	"slices"
	"strconv"

	"tmo/internal/slo"
	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/tsdb"
	"tmo/internal/twin"
	"tmo/internal/vclock"
)

// ObsConfig attaches the observability plane to a rollout: at every window
// barrier the controller writes per-host vital signs and per-cohort
// aggregates into the DB, evaluates SLO burn-rate monitors over them, and
// cuts a flight bundle from the DB whenever a host's cohort trips a
// guardrail, the host OOMs, or it crashes. All of it runs on the
// single-threaded barrier path, so the exports inherit the event log's
// byte-identity guarantee.
type ObsConfig struct {
	// DB is the sink; a nil DB disables the whole plane.
	DB *tsdb.DB
	// ScrapeHosts additionally snapshots every host's full telemetry
	// registry into the DB each barrier, keeping the hostMetrics allowlist.
	ScrapeHosts bool
}

// The plane's fixed geometry: each flight bundle carries the host's last
// flightWindows barrier windows and the last flightEvents decision-log
// records, and the fault-p99 burn monitor budgets faultP99BudgetUs (50 ms).
const (
	flightWindows    = 32
	flightEvents     = 64
	faultP99BudgetUs = 50_000
)

// hostMetrics is the vital-signs allowlist a host-registry scrape keeps:
// the PSI integrals, memory occupancy, swap fill, and fault behaviour the
// paper's dashboards watch.
var hostMetrics = map[string]bool{
	"psi.memory.some_total_us": true,
	"psi.memory.full_total_us": true,
	"psi.io.some_total_us":     true,
	"host.resident_bytes":      true,
	"host.pool_bytes":          true,
	"host.free_bytes":          true,
	"swap.stored_bytes":        true,
	"mm.refaults":              true,
	"mm.fault_latency_us":      true,
}

// obsState is the controller's live observability plane.
type obsState struct {
	cfg     ObsConfig
	scraper *tsdb.Scraper
	eval    *slo.Evaluator
	// oomDumped tracks the incarnation whose OOM already cut a bundle, so
	// a host grinding through OOM kills ships one post-mortem per life.
	oomDumped []int
}

// newObsState wires the plane for a normalized config; nil when disabled.
func newObsState(cfg Config, reg *telemetry.Registry) *obsState {
	if cfg.Obs == nil || cfg.Obs.DB == nil {
		return nil
	}
	o := *cfg.Obs
	st := &obsState{
		cfg:       o,
		scraper:   &tsdb.Scraper{DB: o.DB, Filter: func(name string) bool { return hostMetrics[name] }},
		eval:      &slo.Evaluator{DB: o.DB, Monitors: defaultMonitors(cfg), Telemetry: reg},
		oomDumped: make([]int, len(cfg.Hosts)),
	}
	for i := range st.oomDumped {
		st.oomDumped[i] = -1
	}
	return st
}

// defaultMonitors derives burn monitors from the fleet-wide guardrails, so
// the early-warning thresholds and the barrier verdicts share one budget:
// PSI overshoot and the RPS dip against the control cohort on the cohort
// aggregates, fault p99 and swap-exhaustion slope on the per-host series.
func defaultMonitors(cfg Config) []slo.Monitor {
	g := cfg.Guardrails
	var ms []slo.Monitor
	if g.MaxMemPressure > 0 {
		ms = append(ms, slo.Monitor{
			Name: "psi-burn", Metric: "rollout.cohort.mem_pressure",
			Kind: slo.Upper, Budget: g.MaxMemPressure,
		})
	}
	if g.MaxRPSDip > 0 {
		ms = append(ms, slo.Monitor{
			Name: "rps-burn", Metric: "rollout.cohort.rps_ratio",
			Kind: slo.Lower, Budget: 1 - g.MaxRPSDip,
		})
	}
	ms = append(ms, slo.Monitor{
		Name: "fault-p99-burn", Metric: "rollout.host.fault_p99_us",
		Kind: slo.Upper, Budget: faultP99BudgetUs,
	})
	if g.SwapUtilizationLatch > 0 {
		ms = append(ms, slo.Monitor{
			Name: "swap-slope", Metric: "rollout.host.swap_util",
			Kind: slo.Slope, Budget: g.SwapUtilizationLatch,
			Horizon: 8 * cfg.Window,
		})
	}
	if cfg.Twin != nil {
		// Two-fidelity fleets watch the |full − twin| per-class pressure gap:
		// a burn here means the calibration has gone stale against the live
		// full-fidelity anchors and twin cohort verdicts are suspect.
		ms = append(ms, slo.Monitor{
			Name: "twin-drift", Metric: "rollout.fidelity.pressure_gap",
			Kind: slo.Upper, Budget: twin.DefaultTolerance().Pressure,
		})
	}
	return ms
}

// stageLabel names the rollout phase for series labels.
func (c *Controller) stageLabel() string {
	switch c.state {
	case StateStaging:
		return c.cfg.Plan[c.stageIdx].Name
	case StateWarming:
		return "warm"
	default:
		return "settle"
	}
}

// observe runs the observability plane at a barrier: per-host vitals,
// per-cohort aggregates (when staging) and the controller's own registry
// into the DB, then the SLO monitors. Hosts are visited in index order and
// candidates/devices in fixed order, keeping the DB's append order — and
// therefore its export — deterministic.
func (c *Controller) observe(cws []candWindow, wt *windowTally) {
	if c.obs == nil {
		return
	}
	o := c.obs
	stage := c.stageLabel()

	// Per-host series only exist for full-fidelity hosts: a 100k-host twin
	// fleet would otherwise mint ~600k series for members whose whole point
	// is to be cheap. Twins are observed through the cohort and
	// per-fidelity aggregates.
	for _, h := range c.full {
		if h.down {
			continue
		}
		vitals := map[string]float64{
			"pressure":       h.v.Pressure,
			"rps":            h.v.RPS,
			"resident_bytes": h.v.ResidentBytes,
			"ooms":           float64(h.v.OOMKills),
		}
		if h.swapCap > 0 {
			vitals["swap_util"] = float64(h.v.SwapStoredBytes) / float64(h.swapCap)
		}
		if h.v.FaultP99Us > 0 {
			vitals["fault_p99_us"] = h.v.FaultP99Us
		}

		labels := []telemetry.Label{
			{Key: "host", Value: fmt.Sprintf("host-%d", h.index)},
			{Key: "app", Value: h.spec.App},
			{Key: "device", Value: h.device},
			{Key: "candidate", Value: c.policyFor(h).Name},
			{Key: "stage", Value: stage},
			{Key: "incarnation", Value: strconv.Itoa(h.incarnation)},
		}
		for _, name := range hostVitalOrder {
			if v, ok := vitals[name]; ok {
				o.cfg.DB.Append(c.now, "rollout.host."+name, labels, v)
			}
		}
		if o.cfg.ScrapeHosts {
			o.scraper.ScrapeSnapshot(c.now, labels, h.sim.Snapshot())
		}
		if h.v.OOMKills > 0 && o.oomDumped[h.index] != h.incarnation {
			o.oomDumped[h.index] = h.incarnation
			c.dumpFlight(h, "oom")
		}
	}

	c.observeFidelity(stage, wt)

	for k := range cws {
		cw := &cws[k]
		if cw.stats.Hosts == 0 {
			continue
		}
		cl := []telemetry.Label{
			{Key: "candidate", Value: c.cands[k].pol.Name},
			{Key: "stage", Value: stage},
		}
		o.cfg.DB.Append(c.now, "rollout.cohort.mem_pressure", cl, cw.stats.MemPressure)
		o.cfg.DB.Append(c.now, "rollout.cohort.rps_ratio", cl, cw.stats.RPSRatio)
		o.cfg.DB.Append(c.now, "rollout.cohort.savings_frac", cl, cw.savings)
		o.cfg.DB.Append(c.now, "rollout.cohort.hosts", cl, float64(cw.stats.Hosts))
		for _, ds := range cw.dev {
			if ds.Hosts == 0 {
				continue
			}
			dl := append(append([]telemetry.Label(nil), cl...),
				telemetry.Label{Key: "device", Value: ds.Device})
			o.cfg.DB.Append(c.now, "rollout.cohort.mem_pressure", dl, ds.MemPressure)
			o.cfg.DB.Append(c.now, "rollout.cohort.rps_ratio", dl, ds.RPSRatio)
		}
	}

	o.scraper.Scrape(c.now, []telemetry.Label{{Key: "host", Value: "controller"}}, c.reg)

	for _, a := range o.eval.Eval(c.now) {
		c.record(trace.KindSLOBurn, a.Monitor, "%s: %s", a.Series, a.Detail())
		if a.Monitor == "twin-drift" {
			// The pressure-gap burn means the twin calibration has gone
			// stale against its full-fidelity anchors: advise recalibration
			// so the next campaign re-probes the response surface before
			// trusting twin cohort verdicts again.
			c.recalibAdvised++
			c.record(trace.KindRolloutRecalib, a.Series,
				"twin drift burn #%d: re-probe calibration surface (%s)",
				c.recalibAdvised, a.Detail())
		}
	}
}

// hostVitalOrder fixes the per-host series append order.
var hostVitalOrder = []string{
	"pressure", "rps", "resident_bytes", "ooms", "swap_util", "fault_p99_us",
}

// observeFidelity writes the two-fidelity health series: per (device class,
// fidelity) mean pressure and host count over the treated cohort, and the
// |full − twin| pressure gap per class wherever both fidelities have treated
// hosts. The gap feeds the twin-drift burn monitor — the live check that the
// calibration still tracks the full-fidelity anchors riding along in the
// same cohorts.
func (c *Controller) observeFidelity(stage string, wt *windowTally) {
	if c.obs == nil || c.cfg.Twin == nil {
		return
	}
	cells := wt.fid
	for d, device := range c.fleetDevices {
		var mean [2]float64
		for f, fid := range fidelities {
			s := cells[2*d+f].stats(device, 0)
			if s.Hosts == 0 {
				continue
			}
			mean[f] = s.MemPressure
			fl := []telemetry.Label{
				{Key: "device", Value: device},
				{Key: "fidelity", Value: fid},
				{Key: "stage", Value: stage},
			}
			c.obs.cfg.DB.Append(c.now, "rollout.fidelity.mem_pressure", fl, mean[f])
			c.obs.cfg.DB.Append(c.now, "rollout.fidelity.hosts", fl, float64(s.Hosts))
		}
		if cells[2*d].hosts > 0 && cells[2*d+1].hosts > 0 {
			c.obs.cfg.DB.Append(c.now, "rollout.fidelity.pressure_gap",
				[]telemetry.Label{{Key: "device", Value: device}, {Key: "stage", Value: stage}},
				math.Abs(mean[0]-mean[1]))
		}
	}
}

// dumpFlight cuts one host's flight bundle: its recent vitals plus the
// tail of the decision log around the trigger. Twin hosts write no
// per-host series and ship no bundles.
func (c *Controller) dumpFlight(h *host, reason string) {
	if c.obs == nil || h.fid == fidTwin {
		return
	}
	b := tsdb.FlightBundle{
		Host:        c.hostName(h),
		Reason:      reason,
		T:           c.now,
		Window:      c.window,
		Incarnation: h.incarnation,
		Samples:     c.flightSamples(h),
		Events:      slices.Clone(trace.Last(c.events, flightEvents)),
	}
	c.flights = append(c.flights, b)
	c.record(trace.KindFlightDump, c.hostName(h), "%s: %d samples, %d events",
		reason, len(b.Samples), len(b.Events))
}

// flightSamples reads the host's rollout.host.<vital> points for its
// current incarnation back from the DB — one series per stage and
// candidate the host ran under — and merges them by time into per-window
// samples, oldest first, keeping the last flightWindows.
func (c *Controller) flightSamples(h *host) []tsdb.FlightSample {
	host := telemetry.Label{Key: "host", Value: fmt.Sprintf("host-%d", h.index)}
	inc := telemetry.Label{Key: "incarnation", Value: strconv.Itoa(h.incarnation)}
	byT := make(map[vclock.Time]map[string]float64)
	var ts []vclock.Time
	for _, vital := range hostVitalOrder {
		for _, s := range c.obs.cfg.DB.Select("rollout.host." + vital) {
			if !slices.Contains(s.Labels, host) || !slices.Contains(s.Labels, inc) {
				continue
			}
			for _, p := range s.Points {
				if byT[p.T] == nil {
					byT[p.T] = make(map[string]float64)
					ts = append(ts, p.T)
				}
				byT[p.T][vital] = p.V
			}
		}
	}
	slices.Sort(ts)
	if len(ts) > flightWindows {
		ts = ts[len(ts)-flightWindows:]
	}
	var out []tsdb.FlightSample
	for _, t := range ts {
		out = append(out, tsdb.FlightSample{T: t, Window: int(t / vclock.Time(c.cfg.Window)), Values: byT[t]})
	}
	return out
}
