package experiments

import (
	"fmt"
	"strings"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// SpectrumPoint is one backend's equilibrium under identical workload and
// controller settings.
type SpectrumPoint struct {
	Mode core.Mode
	// Label includes the device for SSD modes.
	Label string
	// MedianLoadUs characterises the backend's speed (typical page load).
	MedianLoadUs float64
	// SavingsFrac is net resident reduction vs baseline.
	SavingsFrac float64
	// MeanMemPressure over the measurement window.
	MeanMemPressure float64
	// RPS over the window.
	RPS float64
}

// SpectrumResult sweeps the offload-backend spectrum — CXL, NVM, zswap,
// fast SSD, slow SSD — under one workload and the production controller.
// It is the synthesis of the paper's thesis: PSI-driven control
// automatically offloads deeper on faster tiers, with no per-backend
// configuration, so savings scale with backend speed while pressure stays
// bounded. (§2.5 motivates the spectrum; §5.2 anticipates the new tiers.)
type SpectrumResult struct {
	Points []SpectrumPoint
}

// SweepBackends runs the spectrum experiment.
func SweepBackends(cfg Config) SpectrumResult {
	warm := cfg.dur(90*vclock.Minute, 15*vclock.Minute)
	measure := cfg.dur(30*vclock.Minute, 6*vclock.Minute)
	p := cfg.profile("feed")
	capacity := 2 * p.FootprintBytes

	type tier struct {
		mode   core.Mode
		device string
		label  string
	}
	tiers := []tier{
		{core.ModeCXL, "C", "cxl-dram"},
		{core.ModeNVM, "C", "nvm-optane"},
		{core.ModeZswap, "C", "zswap-zstd"},
		{core.ModeSSDSwap, "C", "ssd-C (fast)"},
		{core.ModeSSDSwap, "B", "ssd-B (slow)"},
	}

	arms := []fleet.Arm{fleet.Baseline(core.Options{CapacityBytes: capacity, Seed: cfg.Seed + 1700}, warm, p)}
	for _, tr := range tiers {
		arms = append(arms, fleet.Arm{
			Opts: core.Options{
				Mode:          tr.mode,
				CapacityBytes: capacity,
				DeviceModel:   tr.device,
				Senpai:        cfg.senpai(senpai.ConfigA()),
				Seed:          cfg.Seed + 1700,
			},
			Services: []workload.Profile{p},
			Warm:     warm,
			Measure:  measure,
			Step:     10 * vclock.Second,
		})
	}
	type run struct {
		w      fleet.Window
		loadUs float64
	}
	runs := fleet.RunArms(arms, func(i int, h fleet.Host, w fleet.Window) run {
		if i == 0 {
			return run{w: w} // the baseline has no backend
		}
		return run{w, medianLoadUs(h.System)}
	})
	var res SpectrumResult
	for i, tr := range tiers {
		r := runs[i+1]
		res.Points = append(res.Points, SpectrumPoint{
			Mode:            tr.mode,
			Label:           tr.label,
			MedianLoadUs:    r.loadUs,
			SavingsFrac:     1 - r.w.MeanNet/runs[0].w.MeanNet,
			MeanMemPressure: r.w.AppPressure,
			RPS:             r.w.RPS,
		})
	}
	return res
}

// medianLoadUs reports the configured backend's typical page-load latency:
// that of the fastest tier. The CXL node precedes the swap chain: a ModeCXL
// host carries both, and the placement tier is what its cold accesses hit.
func medianLoadUs(sys *core.System) float64 {
	if sys.CXL != nil {
		return float64(sys.CXL.Spec().AccessLatency)
	}
	switch fastest := sys.Chain.TierSpecs()[0]; fastest.Kind {
	case backend.TierZswap:
		return float64(fastest.Codec.DecompressMedian)
	case backend.TierNVM:
		return float64(backend.SpecNVMOptane.ReadMedian)
	}
	return float64(sys.Device.Spec.ReadMedian)
}

// Claims states the spectrum's headline ordering: the fastest tier saves
// strictly more than the slowest.
func (r SpectrumResult) Claims() []Claim {
	return []Claim{exceeds("fastest tier saves more than slowest", r.Points[0].SavingsFrac, r.Points[len(r.Points)-1].SavingsFrac)}
}

// Render implements Result.
func (r SpectrumResult) Render() string {
	rows := [][]string{{"Backend", "median load (us)", "Savings", "mem pressure", "RPS"}}
	labels := make([]string, 0, len(r.Points))
	values := make([]float64, 0, len(r.Points))
	for _, pt := range r.Points {
		rows = append(rows, []string{
			pt.Label,
			fmt.Sprintf("%.1f", pt.MedianLoadUs),
			fmt.Sprintf("%.1f%%", 100*pt.SavingsFrac),
			fmt.Sprintf("%.4f", pt.MeanMemPressure),
			fmt.Sprintf("%.0f", pt.RPS),
		})
		labels = append(labels, pt.Label)
		values = append(values, 100*pt.SavingsFrac)
	}
	var b strings.Builder
	b.WriteString("Backend spectrum: savings vs tier speed under one controller config\n")
	b.WriteString(textplot.Table(rows))
	b.WriteString(textplot.Bar("savings % by backend", labels, values, 40))
	return b.String()
}

var _ Result = SpectrumResult{}
