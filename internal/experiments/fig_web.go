package experiments

import (
	"fmt"
	"strings"

	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/metrics"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// webProfile prepares the Web workload for a phase experiment: the lazy
// anonymous growth is paced to complete within about 60% of the phase, so
// the memory-bound regime is reached mid-phase as in the paper's runs.
func (c Config) webProfile(phase vclock.Duration) workload.Profile {
	p := c.profile("web")
	p.AnonGrowthPeriod = vclock.Duration(float64(phase) * 0.6)
	return p
}

// webPanels bundles the time series recorded from one Web tier.
type webPanels struct {
	Label     string
	RPS       *metrics.Series
	Resident  *metrics.Series // net resident (incl. pool) / capacity
	SwapBytes *metrics.Series
	Promotion *metrics.Series // swap-ins per second
	MemP      *metrics.Series
	IOP       *metrics.Series
	ReadP90ms *metrics.Series // SSD read p90 per window, ms
	FSReads   *metrics.Series // filesystem reads per second
	FileCache *metrics.Series // resident file bytes
}

func newWebPanels(label string) *webPanels {
	mk := func(n string) *metrics.Series { return &metrics.Series{Name: label + " " + n} }
	return &webPanels{
		Label:     label,
		RPS:       mk("rps"),
		Resident:  mk("resident"),
		SwapBytes: mk("swap"),
		Promotion: mk("promotions/s"),
		MemP:      mk("mem pressure"),
		IOP:       mk("io pressure"),
		ReadP90ms: mk("ssd read p90 ms"),
		FSReads:   mk("fs reads/s"),
		FileCache: mk("file cache"),
	}
}

// appendPhase appends q's points after p's, series by series, shifted by
// offset: q holds a later phase of the same tier, recorded on a host of its
// own.
func (p *webPanels) appendPhase(q *webPanels, offset vclock.Duration) {
	dst := []*metrics.Series{p.RPS, p.Resident, p.SwapBytes, p.Promotion, p.MemP, p.IOP, p.ReadP90ms, p.FSReads, p.FileCache}
	for k, s := range []*metrics.Series{q.RPS, q.Resident, q.SwapBytes, q.Promotion, q.MemP, q.IOP, q.ReadP90ms, q.FSReads, q.FileCache} {
		for _, pt := range s.Points {
			dst[k].Record(pt.T.Add(offset), pt.V)
		}
	}
}

// attachWebRecorder wires a new panel set to a running system and returns it.
func attachWebRecorder(sys *core.System, app *workload.App, label string, every vclock.Duration) *webPanels {
	p := newWebPanels(label)
	s := newSampler(every)
	s.add(newCounterRate(p.RPS, app.Completed).sample)
	s.add(newCounterRate(p.Promotion, func() int64 { return app.Group.MM().Stat().SwapIns }).sample)
	s.add(newCounterRate(p.FSReads, sys.Server.Filesystem().Reads).sample)
	s.add(newPressureRate(p.MemP, func() vclock.Duration { return fleet.SomeTotal(sys, app.Group, psi.Memory) }).sample)
	s.add(newPressureRate(p.IOP, func() vclock.Duration { return fleet.SomeTotal(sys, app.Group, psi.IO) }).sample)

	// Windowed p90 of SSD reads: each window starts a zeroed histogram.
	capacity := float64(sys.Opts.CapacityBytes)
	var window metrics.Histogram
	sys.Device.ObserveReads(func(lat vclock.Duration) { window.Record(int64(lat)) })
	s.add(func(now vclock.Time) {
		p.Resident.Record(now, float64(sys.NetResidentBytes())/capacity)
		p.SwapBytes.Record(now, float64(app.Group.MM().SwappedBytes()))
		p.FileCache.Record(now, float64(app.Group.MM().ResidentBytesOf(mm.File)))
		if window.Count() > 0 {
			p.ReadP90ms.Record(now, float64(window.Quantile(0.90))/1000)
		}
		window = metrics.Histogram{}
	})
	sys.Server.OnTick(s.onTick)
	return p
}

// declineRatio compares a series' late mean to its early mean over
// [from, to]: < 1 means the value sagged.
func declineRatio(s *metrics.Series, from, to vclock.Time) float64 {
	span := to.Sub(from)
	early := s.MeanOver(from, from.Add(span/5))
	late := s.MeanOver(to.Add(-span/5), to)
	if early == 0 {
		return 0
	}
	return late / early
}

// ---------------------------------------------------------------------------
// Figure 11: Web on memory-bound hosts, three phases.

// Figure11Result carries the two tiers' RPS and resident-memory series
// across the three phases (offloading disabled, SSD offload, zswap offload).
type Figure11Result struct {
	PhaseDur   vclock.Duration
	PhaseModes [3]core.Mode

	Baseline *webPanels // offloading disabled in every phase
	TMO      *webPanels // disabled -> SSD -> zswap

	// RPS end/start ratios per phase; the memory-bound baseline sags, the
	// offloading phases hold.
	BaselineDecline [3]float64
	TMODecline      [3]float64

	// Mean net resident (fraction of capacity) during the second half of
	// each phase for the TMO tier, and for the baseline tier overall.
	TMOResidentByPhase [3]float64
	BaselineResident   float64
}

// Figure11 reproduces the memory-bound Web experiment: host DRAM is sized
// below the Web footprint; the baseline tier self-throttles as memory fills
// while the TMO tier offloads and sustains its request rate.
func Figure11(cfg Config) Figure11Result {
	phase := cfg.dur(2*vclock.Hour, 20*vclock.Minute)
	res := Figure11Result{
		PhaseDur:   phase,
		PhaseModes: [3]core.Mode{core.ModeOff, core.ModeSSDSwap, core.ModeZswap},
		Baseline:   newWebPanels("baseline"),
		TMO:        newWebPanels("tmo"),
	}
	p := cfg.webProfile(phase)
	capacity := int64(0.90 * float64(p.FootprintBytes))
	every := cfg.dur(60*vclock.Second, 20*vclock.Second)

	// Every (phase, tier) pair is a host of its own recording on local time;
	// arm k is phase k/2, the baseline tier first.
	arms := make([]fleet.Arm, 6)
	panels := make([]*webPanels, len(arms))
	for k := range arms {
		tier, mode := res.Baseline, core.ModeOff
		if k%2 == 1 {
			tier, mode = res.TMO, res.PhaseModes[k/2]
		}
		arms[k] = fleet.Arm{
			Opts: core.Options{
				Mode:          mode,
				CapacityBytes: capacity,
				DeviceModel:   "C",
				Senpai:        cfg.senpai(senpai.ConfigA()),
				Seed:          cfg.Seed + 700 + uint64(k/2),
			},
			Services: []workload.Profile{p},
			Measure:  phase,
			Hook:     func(h *fleet.Host) { panels[k] = attachWebRecorder(h.System, h.Apps[0], tier.Label, every) },
		}
	}
	fleet.RunArms(arms, windowOf)
	// Score each phase on its own timeline, then shift the phases onto one
	// timeline per tier.
	end := vclock.Time(phase)
	for k, pn := range panels {
		i, tier := k/2, res.Baseline
		if k%2 == 0 {
			res.BaselineDecline[i] = declineRatio(pn.RPS, 0, end)
		} else {
			tier = res.TMO
			res.TMODecline[i] = declineRatio(pn.RPS, 0, end)
			res.TMOResidentByPhase[i] = pn.Resident.MeanOver(end/2, end)
		}
		tier.appendPhase(pn, vclock.Duration(i)*phase)
	}
	res.BaselineResident = res.Baseline.Resident.MeanOver(0, vclock.Time(3*phase))
	return res
}

// Render implements Result.
func (r Figure11Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 11: Web on memory-bound hosts (phases: off | ssd | zswap)\n")
	b.WriteString(textplot.Chart("requests per second",
		[]*metrics.Series{r.Baseline.RPS.Downsample(72), r.TMO.RPS.Downsample(72)}, 72, 10))
	b.WriteString(textplot.Chart("net resident memory (fraction of DRAM)",
		[]*metrics.Series{r.Baseline.Resident.Downsample(72), r.TMO.Resident.Downsample(72)}, 72, 10))
	rows := [][]string{{"Phase", "Mode", "Baseline RPS end/start", "TMO RPS end/start", "TMO resident (2nd half)"}}
	for i := 0; i < 3; i++ {
		rows = append(rows, []string{
			fmt.Sprintf("%d", i+1),
			r.PhaseModes[i].String(),
			fmt.Sprintf("%.2f", r.BaselineDecline[i]),
			fmt.Sprintf("%.2f", r.TMODecline[i]),
			fmt.Sprintf("%.2f", r.TMOResidentByPhase[i]),
		})
	}
	b.WriteString(textplot.Table(rows))
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 12: Web under TMO with fast vs slow SSDs.

// Figure12Tier is one device's panel set plus second-half summary means.
type Figure12Tier struct {
	Device string
	Panels *webPanels

	MeanReadP90ms   float64
	MeanResident    float64
	MeanSwapBytes   float64
	MeanPromotionPS float64
	MeanRPS         float64
	MeanMemP        float64
	MeanIOP         float64
}

// Figure12Result compares TMO on a fast SSD (device C) against a slow SSD
// (device B). Its headline is the §4.3 finding: the faster device sustains
// a *higher* promotion rate and *higher* RPS simultaneously, contradicting
// the premise of promotion-rate-target controllers.
type Figure12Result struct {
	Fast, Slow Figure12Tier
}

// Claims states the §4.3 contradiction: the fast tier beats the slow tier
// on promotion rate AND application throughput at once.
func (r Figure12Result) Claims() []Claim {
	return []Claim{
		exceeds("fast SSD promotes more than slow (/s)", r.Fast.MeanPromotionPS, r.Slow.MeanPromotionPS),
		exceeds("fast SSD serves more RPS than slow", r.Fast.MeanRPS, r.Slow.MeanRPS),
	}
}

// Figure12 runs the fast/slow SSD comparison.
func Figure12(cfg Config) Figure12Result {
	dur := cfg.dur(2*vclock.Hour, 30*vclock.Minute)
	p := cfg.webProfile(dur)
	capacity := int64(0.90 * float64(p.FootprintBytes))
	every := cfg.dur(60*vclock.Second, 20*vclock.Second)

	devices := []string{"C", "B"}
	arms := make([]fleet.Arm, len(devices))
	panels := make([]*webPanels, len(devices))
	for i, device := range devices {
		arms[i] = fleet.Arm{
			Opts: core.Options{
				Mode:          core.ModeSSDSwap,
				CapacityBytes: capacity,
				DeviceModel:   device,
				Senpai:        cfg.senpai(senpai.ConfigA()),
				Seed:          cfg.Seed + 800, // same seed: only the device differs
			},
			Services: []workload.Profile{p},
			Measure:  dur,
			Hook:     func(h *fleet.Host) { panels[i] = attachWebRecorder(h.System, h.Apps[0], "ssd-"+device, every) },
		}
	}
	half := vclock.Time(dur / 2)
	end := vclock.Time(dur)
	tiers := fleet.RunArms(arms, func(i int, _ fleet.Host, _ fleet.Window) Figure12Tier {
		pn := panels[i]
		return Figure12Tier{
			Device:          devices[i],
			Panels:          pn,
			MeanReadP90ms:   pn.ReadP90ms.MeanOver(half, end),
			MeanResident:    pn.Resident.MeanOver(half, end),
			MeanSwapBytes:   pn.SwapBytes.MeanOver(half, end),
			MeanPromotionPS: pn.Promotion.MeanOver(half, end),
			MeanRPS:         pn.RPS.MeanOver(half, end),
			MeanMemP:        pn.MemP.MeanOver(half, end),
			MeanIOP:         pn.IOP.MeanOver(half, end),
		}
	})
	return Figure12Result{Fast: tiers[0], Slow: tiers[1]}
}

// Render implements Result.
func (r Figure12Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 12: Web under TMO with fast (C) vs slow (B) SSD\n")
	b.WriteString(textplot.Chart("promotion rate (swap-ins/s)",
		[]*metrics.Series{r.Fast.Panels.Promotion.Downsample(72), r.Slow.Panels.Promotion.Downsample(72)}, 72, 8))
	b.WriteString(textplot.Chart("requests per second",
		[]*metrics.Series{r.Fast.Panels.RPS.Downsample(72), r.Slow.Panels.RPS.Downsample(72)}, 72, 8))
	rows := [][]string{{"Metric", "fast SSD (C)", "slow SSD (B)"}}
	add := func(name string, f func(Figure12Tier) float64, format string) {
		rows = append(rows, []string{name, fmt.Sprintf(format, f(r.Fast)), fmt.Sprintf(format, f(r.Slow))})
	}
	add("SSD read p90 (ms)", func(t Figure12Tier) float64 { return t.MeanReadP90ms }, "%.2f")
	add("net resident (frac of DRAM)", func(t Figure12Tier) float64 { return t.MeanResident }, "%.3f")
	add("swap size (MiB)", func(t Figure12Tier) float64 { return t.MeanSwapBytes / (1 << 20) }, "%.1f")
	add("promotion rate (/s)", func(t Figure12Tier) float64 { return t.MeanPromotionPS }, "%.1f")
	add("RPS", func(t Figure12Tier) float64 { return t.MeanRPS }, "%.0f")
	add("memory pressure", func(t Figure12Tier) float64 { return t.MeanMemP }, "%.4f")
	add("io pressure", func(t Figure12Tier) float64 { return t.MeanIOP }, "%.4f")
	b.WriteString(textplot.Table(rows))
	return b.String()
}

// ---------------------------------------------------------------------------
// Figure 13: Senpai configuration tuning on non-memory-bound Web.

// Figure13Tier is one configuration's panels plus final-third summaries.
type Figure13Tier struct {
	Label  string
	Panels *webPanels

	MeanRPS       float64
	MeanResident  float64 // bytes
	MeanMemP      float64
	MeanIOP       float64
	MeanFSReads   float64
	MeanFileCache float64 // bytes
}

// Figure13Result compares no offloading, Config A (production), and the
// aggressive Config B on hosts that are not memory-bound, using the zswap
// backend as §4.4 does.
type Figure13Result struct {
	Baseline, ConfigA, ConfigB Figure13Tier
}

// Figure13 runs the three tiers, with a mid-run restart (code push).
func Figure13(cfg Config) Figure13Result {
	dur := cfg.dur(2*vclock.Hour, 30*vclock.Minute)
	p := cfg.webProfile(dur / 2)
	capacity := 2 * p.FootprintBytes // not memory-bound
	every := cfg.dur(60*vclock.Second, 20*vclock.Second)

	tiers := []struct {
		label string
		mode  core.Mode
		sc    *senpai.Config
	}{
		{"baseline", core.ModeOff, nil},
		{"config-a", core.ModeZswap, cfg.senpai(senpai.ConfigA())},
		{"config-b", core.ModeZswap, cfg.senpai(senpai.ConfigB())},
	}
	arms := make([]fleet.Arm, len(tiers))
	panels := make([]*webPanels, len(tiers))
	for i, t := range tiers {
		arms[i] = fleet.Arm{
			Opts: core.Options{
				Mode:          t.mode,
				CapacityBytes: capacity,
				DeviceModel:   "C",
				Senpai:        t.sc,
				Seed:          cfg.Seed + 900,
			},
			Services: []workload.Profile{p},
			Measure:  dur / 2,
			Hook: func(h *fleet.Host) {
				panels[i] = attachWebRecorder(h.System, h.Apps[0], t.label, every)
				h.Run(dur / 2)
				h.Apps[0].Restart(h.Server.Now()) // code push
			},
		}
	}
	from := vclock.Time(dur).Add(-dur / 3)
	end := vclock.Time(dur)
	out := fleet.RunArms(arms, func(i int, _ fleet.Host, _ fleet.Window) Figure13Tier {
		pn := panels[i]
		return Figure13Tier{
			Label:         tiers[i].label,
			Panels:        pn,
			MeanRPS:       pn.RPS.MeanOver(from, end),
			MeanResident:  pn.Resident.MeanOver(from, end) * float64(capacity),
			MeanMemP:      pn.MemP.MeanOver(from, end),
			MeanIOP:       pn.IOP.MeanOver(from, end),
			MeanFSReads:   pn.FSReads.MeanOver(from, end),
			MeanFileCache: pn.FileCache.MeanOver(from, end),
		}
	})
	return Figure13Result{Baseline: out[0], ConfigA: out[1], ConfigB: out[2]}
}

// Render implements Result.
func (r Figure13Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 13: Senpai config tuning on non-memory-bound Web (zswap)\n")
	b.WriteString(textplot.Chart("requests per second",
		[]*metrics.Series{r.Baseline.Panels.RPS.Downsample(72), r.ConfigA.Panels.RPS.Downsample(72), r.ConfigB.Panels.RPS.Downsample(72)}, 72, 8))
	b.WriteString(textplot.Chart("resident memory (fraction of DRAM)",
		[]*metrics.Series{r.Baseline.Panels.Resident.Downsample(72), r.ConfigA.Panels.Resident.Downsample(72), r.ConfigB.Panels.Resident.Downsample(72)}, 72, 8))
	rows := [][]string{{"Metric", "baseline", "config A", "config B"}}
	add := func(name string, f func(Figure13Tier) float64, format string) {
		rows = append(rows, []string{name,
			fmt.Sprintf(format, f(r.Baseline)),
			fmt.Sprintf(format, f(r.ConfigA)),
			fmt.Sprintf(format, f(r.ConfigB))})
	}
	add("RPS", func(t Figure13Tier) float64 { return t.MeanRPS }, "%.0f")
	add("resident (MiB)", func(t Figure13Tier) float64 { return t.MeanResident / (1 << 20) }, "%.1f")
	add("memory pressure", func(t Figure13Tier) float64 { return t.MeanMemP }, "%.4f")
	add("io pressure", func(t Figure13Tier) float64 { return t.MeanIOP }, "%.4f")
	add("SSD reads (/s)", func(t Figure13Tier) float64 { return t.MeanFSReads }, "%.0f")
	add("file cache (MiB)", func(t Figure13Tier) float64 { return t.MeanFileCache / (1 << 20) }, "%.1f")
	b.WriteString(textplot.Table(rows))
	return b.String()
}

// Compile-time interface checks.
var (
	_ Result = Figure11Result{}
	_ Result = Figure12Result{}
	_ Result = Figure13Result{}
)
