package twin

import (
	"fmt"
	"math"
	"strings"

	"tmo/internal/fleet"
)

// Tolerance bounds how far a twin may drift from its full-fidelity
// counterpart before the fidelity gate fails. Savings, pressure, and
// throughput drift are absolute (they are already normalized fractions);
// fault p99 drift is relative.
type Tolerance struct {
	// Savings is the allowed absolute drift in the savings fraction.
	Savings float64
	// Pressure is the allowed absolute drift in mean windowed pressure.
	// It should sit below the PSI guardrail budget, or a drifted twin
	// could mask (or fake) a trip.
	Pressure float64
	// RPSRatio is the allowed absolute drift in the normalized throughput
	// ratio.
	RPSRatio float64
	// FaultP99Frac is the allowed relative drift in fault-stall p99.
	FaultP99Frac float64
}

// DefaultTolerance returns the gate's stock budget: savings within 8
// points (growthy app classes show ~±5 points of seed-to-seed savings
// spread even in replica means, and the gate must not flake on simulator
// luck), pressure within 0.002 (well under the 0.005 default PSI
// guardrail), throughput within 5 points, fault p99 within 50%.
func DefaultTolerance() Tolerance {
	return Tolerance{Savings: 0.08, Pressure: 0.002, RPSRatio: 0.05, FaultP99Frac: 0.50}
}

// Drift is one (device class, mode, layout, probe) twin-vs-full comparison.
type Drift struct {
	Device string
	Mode   string
	// Layout is the fleet.TierSignature of the checked swap chain layout;
	// empty for the mode's default layout.
	Layout string
	// A is the probe's aggressiveness.
	A float64
	// Full and Twin are the two replica-mean measurements, same protocol,
	// same units.
	Full fleet.Response
	Twin fleet.Response
	// The drift components the tolerance judges.
	SavingsDrift  float64
	PressureDrift float64
	RPSDrift      float64
	FaultP99Drift float64 // relative
}

// Exceeds names the first tolerance the drift violates, or "".
func (d Drift) Exceeds(tol Tolerance) string {
	switch {
	case d.SavingsDrift > tol.Savings:
		return fmt.Sprintf("savings drift %.4f over %.4f", d.SavingsDrift, tol.Savings)
	case d.PressureDrift > tol.Pressure:
		return fmt.Sprintf("pressure drift %.5f over %.5f", d.PressureDrift, tol.Pressure)
	case d.RPSDrift > tol.RPSRatio:
		return fmt.Sprintf("rps drift %.4f over %.4f", d.RPSDrift, tol.RPSRatio)
	case d.FaultP99Drift > tol.FaultP99Frac:
		return fmt.Sprintf("fault-p99 drift %.2f over %.2f", d.FaultP99Drift, tol.FaultP99Frac)
	}
	return ""
}

// FidelityReport is the gate's verdict over every checked class, mode,
// layout and probe.
type FidelityReport struct {
	Tol  Tolerance
	Rows []Drift
}

// Pass reports whether every row is within tolerance.
func (r FidelityReport) Pass() bool { return len(r.Failures()) == 0 }

// Failures lists the rows exceeding tolerance, rendered.
func (r FidelityReport) Failures() []string {
	var out []string
	for _, d := range r.Rows {
		if why := d.Exceeds(r.Tol); why != "" {
			out = append(out, fmt.Sprintf("%s/%s%s a=%.1f: %s", d.Device, d.Mode, d.layoutSuffix(), d.A, why))
		}
	}
	return out
}

// String renders the report as one row per comparison.
func (r FidelityReport) String() string {
	var b strings.Builder
	for _, d := range r.Rows {
		status := "ok"
		if why := d.Exceeds(r.Tol); why != "" {
			status = "FAIL: " + why
		}
		fmt.Fprintf(&b, "%-4s %-8s a=%5.1f  savings %6.3f/%6.3f  psi %.5f/%.5f  rps %.3f/%.3f  p99 %7.0f/%7.0f  %s%s\n",
			d.Device, d.Mode, d.A,
			d.Full.Savings, d.Twin.Savings,
			d.Full.Pressure, d.Twin.Pressure,
			d.Full.RPSRatio, d.Twin.RPSRatio,
			d.Full.FaultP99Us, d.Twin.FaultP99Us, status, d.layoutSuffix())
	}
	return b.String()
}

// layoutSuffix renders the row's layout for reports; empty for the mode's
// default layout.
func (d Drift) layoutSuffix() string {
	if d.Layout == "" {
		return ""
	}
	return " " + d.Layout
}

// FidelityConfig shapes a gate run: the calibration's own config, with
// Probes holding the holdout policies and Seed offsetting the check's hosts
// away from the calibration's. A zero Window takes the coefficient set's.
type FidelityConfig = CalibrateConfig

// CheckFidelity runs the fidelity gate: for every point of the config's spec
// × mode × layout × probe product it drives full-fidelity hosts and twins
// through the identical measurement protocol (fleet.MeasureResponse), one
// seeded pair per replica on the shared worker pool, and reports the drift
// of every signal the rollout guardrails judge under DefaultTolerance. A
// product point without a fitted surface fails its row. A report that fails
// the gate means the calibration is stale for that class — recalibrate
// before trusting twin cohort verdicts.
func CheckFidelity(cs *CoefficientSet, cfg FidelityConfig) FidelityReport {
	if cfg.Window <= 0 {
		cfg.Window = cs.Window
	}
	cfg = cfg.normalize()
	pts := cfg.points(cfg.Probes)
	// Only points with a surface are measured; seeds count measured points.
	var todo []int
	for i := range pts {
		if _, ok := cs.Surfaces[pts[i].key]; ok {
			pts[i].spec.Seed = cfg.Seed + 0xf1de11 + uint64(len(todo))*104729
			todo = append(todo, i)
		}
	}
	full := make([]fleet.Response, len(pts))
	tw := make([]fleet.Response, len(pts))
	fleet.Parallel(len(todo), cfg.Workers, func(j int) {
		p := pts[todo[j]]
		full[todo[j]] = cfg.measure(fleet.NewSimHost(p.spec), p.probe)
		tw[todo[j]] = cfg.measure(NewHost(p.spec, cs.Surfaces[p.key], p.spec.Seed^0x7717, Footprint(p.spec)), p.probe)
	})

	rep := FidelityReport{Tol: DefaultTolerance()}
	for i := 0; i < len(pts); i += cfg.Replicas {
		p := pts[i]
		d := Drift{
			Device: p.spec.DeviceClass(), Mode: p.spec.Mode.String(),
			Layout: fleet.TierSignature(p.spec.Tiers), A: Aggressiveness(p.probe),
		}
		if _, ok := cs.Surfaces[p.key]; !ok {
			d.SavingsDrift = math.Inf(1) // no surface: fail loudly
			rep.Rows = append(rep.Rows, d)
			continue
		}
		d.Full = mean(full[i : i+cfg.Replicas])
		d.Twin = mean(tw[i : i+cfg.Replicas])
		d.SavingsDrift = math.Abs(d.Full.Savings - d.Twin.Savings)
		d.PressureDrift = math.Abs(d.Full.Pressure - d.Twin.Pressure)
		d.RPSDrift = math.Abs(d.Full.RPSRatio - d.Twin.RPSRatio)
		if d.Full.FaultP99Us > 0 {
			d.FaultP99Drift = math.Abs(d.Full.FaultP99Us-d.Twin.FaultP99Us) / d.Full.FaultP99Us
		} else if d.Twin.FaultP99Us > 0 {
			d.FaultP99Drift = 1
		}
		rep.Rows = append(rep.Rows, d)
	}
	return rep
}
