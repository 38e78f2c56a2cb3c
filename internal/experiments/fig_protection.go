package experiments

import (
	"fmt"
	"runtime"
	"slices"
	"strings"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/fleet"
	"tmo/internal/mm"
	"tmo/internal/oomd"
	"tmo/internal/psi"
	"tmo/internal/sim"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// ProtectionArm is one configuration of the overcommitted host.
type ProtectionArm struct {
	Label string
	// Oomd arms the userspace OOM killer; Low sets the frontend's
	// memory.low to its resident size at start.
	Oomd, Low bool
	// Per report: the root's memory some-pressure over it and the
	// frontend's RPS.
	MemPressure, FrontendRPS []float64
	// FrontendMinMiB is the frontend's smallest resident size at any tick;
	// BatchEndMiB is the batch job's at the end.
	FrontendMinMiB, BatchEndMiB float64
	// FrontendKilled and BatchKilled say which containers died.
	FrontendKilled, BatchKilled bool
	// Kills lists oomd's kills in order, as "group@time".
	Kills []string
}

// ProtectionResult is the §3.2.4 exhibit: a latency-critical frontend
// (cache-b at half scale) shares a 192 MiB host with an oversized batch job
// (analytics) and no swap, so the pair is functionally out of memory. An
// oomd watching the root's memory some-pressure may kill the batch job
// (priority 0) or the frontend (priority 10). Three arms share every seed:
// oomd with the frontend's memory.low set, oomd alone, and neither — the
// control each mechanism's effect is measured against.
type ProtectionResult struct {
	// Arms run oomd with memory.low, oomd alone, then neither.
	Arms []ProtectionArm
	// Report is the reporting interval.
	Report vclock.Duration
}

// Protection runs the three arms.
func Protection(cfg Config) ProtectionResult {
	const report = 30 * vclock.Second
	reports := int(cfg.dur(8*vclock.Minute, 4*vclock.Minute) / report)
	// run simulates one arm; arms share every seed and no state.
	run := func(a *ProtectionArm) {
		spec, _ := backend.DeviceByModel("C")
		s := sim.NewServer(sim.Config{
			CapacityBytes: 192 * workload.MiB, // the two services want ~300 MiB
			Device:        backend.NewSSDDevice(spec, cfg.Seed+4200),
			Policy:        mm.PolicyTMO,
		})
		front := s.AddApp(workload.MustCatalog("cache-b").Scale(0.5), cgroup.Workload, nil, cfg.Seed+4201)
		batch := s.AddApp(workload.MustCatalog("analytics"), cgroup.Workload, nil, cfg.Seed+4202)
		if a.Low {
			front.Group.MM().SetLow(front.Group.MemoryCurrent())
		}
		var k *oomd.Controller
		if a.Oomd {
			oc := oomd.DefaultConfig()
			oc.Kind, oc.Threshold = psi.Some, 0.02
			k = oomd.New(oc, s.Hierarchy().Root())
			k.AddCandidate(oomd.Candidate{Group: front.Group, Priority: 10, Kill: front.Kill})
			k.AddCandidate(oomd.Candidate{Group: batch.Group, Priority: 0, Kill: batch.Kill})
			s.OnTick(k.Tick)
		}
		minRes := front.Group.MemoryCurrent()
		s.OnTick(func(vclock.Time) { minRes = min(minRes, front.Group.MemoryCurrent()) })
		root := s.Hierarchy().Root().PSI()
		var pressure psi.Baseline
		var served int64
		for range reports {
			s.Run(report)
			root.Sync(s.Now())
			a.MemPressure = append(a.MemPressure, pressure.Read(root.Total(psi.Memory, psi.Some), report))
			a.FrontendRPS = append(a.FrontendRPS, float64(front.Completed()-served)/report.Seconds())
			served = front.Completed()
		}
		a.FrontendMinMiB = float64(minRes) / workload.MiB
		a.BatchEndMiB = float64(batch.Group.MemoryCurrent()) / workload.MiB
		a.FrontendKilled, a.BatchKilled = front.Killed(), batch.Killed()
		if k != nil {
			for _, e := range k.Kills() {
				a.Kills = append(a.Kills, fmt.Sprintf("%s@%s", e.Group.Name(), e.Time))
			}
		}
	}
	arms := []ProtectionArm{
		{Label: "oomd+low", Oomd: true, Low: true},
		{Label: "oomd", Oomd: true},
		{Label: "neither"},
	}
	fleet.Parallel(len(arms), runtime.GOMAXPROCS(0), func(i int) { run(&arms[i]) })
	return ProtectionResult{Arms: arms, Report: report}
}

// Claims states what oomd does, each against the arm without it. The
// frontend's RPS is not a claim: the arm without oomd serves the same
// (EXPERIMENTS.md). Nor is memory.low: with no swap the frontend's anon
// pages cannot be reclaimed, so its minimum resident size is the same with
// and without it.
func (r ProtectionResult) Claims() []Claim {
	lastPct := func(a ProtectionArm) float64 { return 100 * a.MemPressure[len(a.MemPressure)-1] }
	spared, worst := true, 0.0
	for _, a := range r.Arms {
		if a.Oomd {
			spared = spared && a.BatchKilled && !a.FrontendKilled
			worst = max(worst, lastPct(a))
		}
	}
	none := r.Arms[len(r.Arms)-1]
	return []Claim{
		check("oomd killed the batch job, never the frontend", spared),
		exceeds("oomd lowers last-report mem some pressure (pts)", lastPct(none), worst),
	}
}

// Render implements Result.
func (r ProtectionResult) Render() string {
	rows := [][]string{{"Arm", "oomd kills", "frontend min MiB", "batch end MiB", "frontend RPS min-max"}}
	timeline := [][]string{{"time"}}
	for _, a := range r.Arms {
		lo, hi := slices.Min(a.FrontendRPS), slices.Max(a.FrontendRPS)
		kills := strings.Join(a.Kills, " ")
		if kills == "" {
			kills = "-"
		}
		rows = append(rows, []string{a.Label, kills, fmt.Sprintf("%.1f", a.FrontendMinMiB),
			fmt.Sprintf("%.1f", a.BatchEndMiB), fmt.Sprintf("%.0f-%.0f", lo, hi)})
		timeline[0] = append(timeline[0], a.Label+" some", a.Label+" RPS")
	}
	for i := range r.Arms[0].MemPressure {
		row := []string{(vclock.Duration(i+1) * r.Report).String()}
		for _, a := range r.Arms {
			row = append(row, fmt.Sprintf("%.3f%%", 100*a.MemPressure[i]), fmt.Sprintf("%.0f", a.FrontendRPS[i]))
		}
		timeline = append(timeline, row)
	}
	var b strings.Builder
	b.WriteString("Protection (§3.2.4): oomd and memory.low on an overcommitted host without swap\n")
	b.WriteString(textplot.Table(rows))
	b.WriteString(textplot.Table(timeline))
	return b.String()
}

var _ Result = ProtectionResult{}
