package experiments

import (
	"fmt"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
)

// FleetHetRow is one SSD generation's outcome.
type FleetHetRow struct {
	Device      string
	ReadP99us   float64
	SavingsFrac float64
	RPSRatio    float64
}

// FleetHeterogeneityResult runs the same workload under TMO across every
// SSD generation in the fleet (Fig. 5's A-G). §2.5 frames device
// heterogeneity as the central challenge; the result shows TMO's answer:
// one configuration serves the whole fleet — newer devices yield more
// savings, older devices yield less, and none regress the workload.
type FleetHeterogeneityResult struct {
	Rows []FleetHetRow
}

// FleetHeterogeneity measures A/B savings per device generation.
func FleetHeterogeneity(cfg Config) FleetHeterogeneityResult {
	warm := cfg.dur(90*vclock.Minute, 12*vclock.Minute)
	measure := cfg.dur(30*vclock.Minute, 5*vclock.Minute)
	specs := make([]fleet.Spec, len(backend.DeviceCatalog))
	for i, dev := range backend.DeviceCatalog {
		specs[i] = fleet.Spec{
			App:    "feed",
			Mode:   core.ModeSSDSwap,
			Device: dev.Model,
			Scale:  cfg.scale(),
			Senpai: cfg.senpai(senpai.ConfigA()),
			Seed:   cfg.Seed + 2300,
		}
	}
	var res FleetHeterogeneityResult
	for i, m := range fleet.MeasureAll(specs, warm, measure) {
		dev := backend.DeviceCatalog[i]
		res.Rows = append(res.Rows, FleetHetRow{
			Device:      dev.Model,
			ReadP99us:   float64(dev.ReadP99),
			SavingsFrac: m.SavingsFrac,
			RPSRatio:    m.RPSRatio,
		})
	}
	return res
}

// NewestBeatsOldest reports the heterogeneity headline: the newest device
// extracts strictly more savings than the oldest under identical settings.
func (r FleetHeterogeneityResult) NewestBeatsOldest() bool {
	if len(r.Rows) < 2 {
		return false
	}
	return r.Rows[len(r.Rows)-1].SavingsFrac > r.Rows[0].SavingsFrac
}

// Render implements Result.
func (r FleetHeterogeneityResult) Render() string {
	rows := [][]string{{"Device", "read p99 (us)", "Savings", "RPS ratio"}}
	labels := make([]string, 0, len(r.Rows))
	values := make([]float64, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Device,
			fmt.Sprintf("%.0f", row.ReadP99us),
			fmt.Sprintf("%.1f%%", 100*row.SavingsFrac),
			fmt.Sprintf("%.2f", row.RPSRatio),
		})
		labels = append(labels, row.Device)
		values = append(values, 100*row.SavingsFrac)
	}
	return "Fleet heterogeneity: one Senpai config across SSD generations A-G\n" +
		textplot.Table(rows) + textplot.Bar("savings % by device generation", labels, values, 40)
}

var _ Result = FleetHeterogeneityResult{}
