package experiments

import (
	"fmt"
	"strings"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/gswap"
	"tmo/internal/mm"
	"tmo/internal/senpai"
	"tmo/internal/textplot"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// This file holds the ablations for TMO's individual design decisions —
// experiments the paper argues qualitatively that we can run quantitatively:
//
//   - the §3.4 reclaim rebalance (cost-balanced vs the historical
//     file-skewed algorithm);
//   - the §3.3 memory.reclaim knob vs driving memory.max;
//   - PSI-feedback control vs the promotion-rate-target baseline across
//     heterogeneous devices (§4.3's argument, controller-vs-controller);
//   - the §5.2 tiered backend hierarchy.

// ---------------------------------------------------------------------------
// Ablation: reclaim policy.

// PolicyOutcome summarises one reclaim policy's steady state.
type PolicyOutcome struct {
	Policy mm.ReclaimPolicy
	// Paging rates per second over the measurement window.
	RefaultsPerSec, SwapInsPerSec float64
	// TotalPagingPerSec is their sum — the §3.4 claim is that balancing
	// minimizes this aggregate.
	TotalPagingPerSec float64
	// RPS over the window.
	RPS float64
	// FileShare is the file fraction of reclaimed memory.
	FileShare float64
}

// AblationReclaimPolicyResult compares the TMO balanced reclaim against the
// legacy file-skewed reclaim under the same controller and workload.
type AblationReclaimPolicyResult struct {
	TMO, Legacy PolicyOutcome
}

// AblationReclaimPolicy runs a mixed anon/file workload under Senpai with a
// zswap backend, once per kernel reclaim policy.
func AblationReclaimPolicy(cfg Config) AblationReclaimPolicyResult {
	warm := cfg.dur(60*vclock.Minute, 15*vclock.Minute)
	measure := cfg.dur(20*vclock.Minute, 5*vclock.Minute)
	p := cfg.profile("feed")

	policies := []mm.ReclaimPolicy{mm.PolicyTMO, mm.PolicyLegacy}
	arms := make([]arm, len(policies))
	for i, policy := range policies {
		// A memory-bound host: reclaim is forced deep into the working
		// set, which is where the historical file skew starts thrashing
		// the file cache while cold anonymous memory sits untouched.
		arms[i] = arm{
			opts: core.Options{
				Mode:          core.ModeZswap,
				CapacityBytes: int64(0.85 * float64(p.FootprintBytes)),
				Policy:        policy,
				Senpai:        cfg.senpai(senpai.ConfigA()),
				Seed:          cfg.Seed + 1300,
			},
			services: []workload.Profile{p},
			warm:     warm,
			measure:  measure,
		}
	}
	out := runArms(arms, func(i int, h host, w window) PolicyOutcome {
		secs := measure.Seconds()
		o := PolicyOutcome{
			Policy:         policies[i],
			RefaultsPerSec: float64(w.stat.Refaults) / secs,
			SwapInsPerSec:  float64(w.stat.SwapIns) / secs,
			RPS:            w.rps,
		}
		o.TotalPagingPerSec = o.RefaultsPerSec + o.SwapInsPerSec
		// The file share is of everything reclaimed since boot.
		if st := h.apps[0].Group.MM().Stat(); st.FileEvictions+st.SwapOuts > 0 {
			o.FileShare = float64(st.FileEvictions) / float64(st.FileEvictions+st.SwapOuts)
		}
		return o
	})
	return AblationReclaimPolicyResult{TMO: out[0], Legacy: out[1]}
}

// Render implements Result.
func (r AblationReclaimPolicyResult) Render() string {
	rows := [][]string{{"Policy", "refaults/s", "swap-ins/s", "total paging/s", "RPS", "file share of reclaim"}}
	for _, o := range []PolicyOutcome{r.TMO, r.Legacy} {
		rows = append(rows, []string{
			o.Policy.String(),
			fmt.Sprintf("%.1f", o.RefaultsPerSec),
			fmt.Sprintf("%.1f", o.SwapInsPerSec),
			fmt.Sprintf("%.1f", o.TotalPagingPerSec),
			fmt.Sprintf("%.0f", o.RPS),
			fmt.Sprintf("%.0f%%", 100*o.FileShare),
		})
	}
	return "Ablation (§3.4): cost-balanced vs file-skewed reclaim\n" + textplot.Table(rows)
}

// ---------------------------------------------------------------------------
// Ablation: memory.reclaim vs memory.max.

// DriveModeOutcome summarises one drive mode under a growing workload.
type DriveModeOutcome struct {
	Mode string
	// DirectReclaims counts charge-triggered reclaim runs: the workload
	// blocking on its own limit while expanding.
	DirectReclaims int64
	// RPS over the run.
	RPS float64
	// FinalResidentMiB is the resident set at the end of the run.
	FinalResidentMiB float64
}

// AblationLimitModeResult compares the stateless memory.reclaim knob TMO
// added to the kernel against the early limit-driven Senpai (§3.3).
type AblationLimitModeResult struct {
	ReclaimMode, LimitMode DriveModeOutcome
}

// AblationLimitMode runs the lazily-growing Web workload under both drive
// modes; the stateful limit blocks the expansion, the stateless knob does
// not.
func AblationLimitMode(cfg Config) AblationLimitModeResult {
	dur := cfg.dur(60*vclock.Minute, 20*vclock.Minute)
	p := cfg.profile("web")
	p.AnonGrowthPeriod = vclock.Duration(float64(dur) * 0.7)

	labels := []string{"memory.reclaim", "memory.max"}
	arms := make([]arm, len(labels))
	for i := range labels {
		sc := cfg.senpai(senpai.ConfigA())
		sc.LimitMode = i == 1
		// Twice the footprint: not host-bound, to isolate the limit effect.
		arms[i] = arm{
			opts: core.Options{
				Mode:          core.ModeZswap,
				CapacityBytes: 2 * p.FootprintBytes,
				Senpai:        sc,
				Seed:          cfg.Seed + 1400,
			},
			services: []workload.Profile{p},
			measure:  dur,
		}
	}
	out := runArms(arms, func(i int, h host, w window) DriveModeOutcome {
		return DriveModeOutcome{
			Mode:             labels[i],
			DirectReclaims:   w.stat.DirectReclaims,
			RPS:              w.rps,
			FinalResidentMiB: float64(h.apps[0].Group.MemoryCurrent()) / (1 << 20),
		}
	})
	return AblationLimitModeResult{ReclaimMode: out[0], LimitMode: out[1]}
}

// Render implements Result.
func (r AblationLimitModeResult) Render() string {
	rows := [][]string{{"Drive mode", "direct reclaims", "RPS", "final resident (MiB)"}}
	for _, o := range []DriveModeOutcome{r.ReclaimMode, r.LimitMode} {
		rows = append(rows, []string{
			o.Mode,
			fmt.Sprintf("%d", o.DirectReclaims),
			fmt.Sprintf("%.0f", o.RPS),
			fmt.Sprintf("%.1f", o.FinalResidentMiB),
		})
	}
	return "Ablation (§3.3): stateless memory.reclaim vs stateful memory.max under growth\n" + textplot.Table(rows)
}

// ---------------------------------------------------------------------------
// Ablation: PSI control vs promotion-rate control across devices.

// ControllerCell is one (controller, device) outcome.
type ControllerCell struct {
	Controller, Device string
	SavingsFrac        float64
	RPS                float64
	PromotionsPerSec   float64
}

// AblationControllerResult is the 2x2 savings/RPS matrix of §4.3 rerun as a
// controller-vs-controller comparison: Senpai adapts offload depth to the
// device; a g-swap static target (profiled offline on the slow device)
// cannot.
type AblationControllerResult struct {
	Cells []ControllerCell
}

// Cell returns the outcome for the given controller and device.
func (r AblationControllerResult) Cell(controller, device string) ControllerCell {
	for _, c := range r.Cells {
		if c.Controller == controller && c.Device == device {
			return c
		}
	}
	return ControllerCell{}
}

// AblationController runs Feed on the fast (C) and slow (B) SSDs under each
// controller.
func AblationController(cfg Config) AblationControllerResult {
	warm := cfg.dur(60*vclock.Minute, 15*vclock.Minute)
	measure := cfg.dur(20*vclock.Minute, 8*vclock.Minute)
	p := cfg.profile("feed")
	capacity := 2 * p.FootprintBytes
	devices := []string{"C", "B"}

	// One baseline per device, then one cell per (controller, device).
	var arms []arm
	var cells []ControllerCell
	for _, dev := range devices {
		arms = append(arms, baseline(core.Options{CapacityBytes: capacity, DeviceModel: dev, Seed: cfg.Seed + 1500}, warm, p))
	}
	for _, ctl := range []string{"senpai", "gswap"} {
		for _, dev := range devices {
			a := arm{
				opts: core.Options{
					Mode:          core.ModeSSDSwap,
					CapacityBytes: capacity,
					DeviceModel:   dev,
					Seed:          cfg.Seed + 1500,
				},
				services: []workload.Profile{p},
				warm:     warm,
				measure:  measure,
				step:     10 * vclock.Second,
			}
			if ctl == "senpai" {
				a.opts.Senpai = cfg.senpai(senpai.ConfigA())
			} else {
				// Replace Senpai with the baseline: a promotion-rate target
				// fixed by offline profiling, applied fleet-wide regardless
				// of the device behind swap — safe on the device it was
				// tuned on, blind to device variance everywhere else.
				a.opts.DisableSenpai = true
				a.hook = func(h *host) {
					c := gswap.DefaultConfig(60)
					if cfg.Quick {
						c.StepFrac *= 4
					}
					gctl := gswap.New(c)
					gctl.AddTarget(h.apps[0].Group)
					h.Server.AddController(gctl)
				}
			}
			arms = append(arms, a)
			cells = append(cells, ControllerCell{Controller: ctl, Device: dev})
		}
	}
	ws := runArms(arms, windowOf)
	for k := range cells {
		w, base := ws[len(devices)+k], ws[k%len(devices)]
		cells[k].SavingsFrac = 1 - w.meanNet/base.meanNet
		cells[k].RPS = w.rps
		cells[k].PromotionsPerSec = float64(w.stat.SwapIns) / measure.Seconds()
	}
	return AblationControllerResult{Cells: cells}
}

// Render implements Result.
func (r AblationControllerResult) Render() string {
	rows := [][]string{{"Controller", "Device", "Savings", "RPS", "promotions/s"}}
	for _, c := range r.Cells {
		rows = append(rows, []string{
			c.Controller, c.Device,
			fmt.Sprintf("%.1f%%", 100*c.SavingsFrac),
			fmt.Sprintf("%.0f", c.RPS),
			fmt.Sprintf("%.1f", c.PromotionsPerSec),
		})
	}
	var b strings.Builder
	b.WriteString("Ablation (§4.3): PSI feedback vs static promotion-rate target\n")
	b.WriteString(textplot.Table(rows))
	fmt.Fprintf(&b, "g-swap's offload depth is device-blind (savings %.1f%% vs %.1f%%); its RPS cost lands on the slow device.\n",
		100*r.Cell("gswap", "C").SavingsFrac, 100*r.Cell("gswap", "B").SavingsFrac)
	fmt.Fprintf(&b, "senpai adapts depth to the device (%.1f%% fast vs %.1f%% slow) while holding pressure — the §4.3 robustness argument.\n",
		100*r.Cell("senpai", "C").SavingsFrac, 100*r.Cell("senpai", "B").SavingsFrac)
	return b.String()
}

// GswapDeviceBlind reports whether the static-target controller ended at
// the same offload depth on both devices (within 20% relative).
func (r AblationControllerResult) GswapDeviceBlind() bool {
	c, bDev := r.Cell("gswap", "C").SavingsFrac, r.Cell("gswap", "B").SavingsFrac
	if c == 0 {
		return false
	}
	diff := c - bDev
	if diff < 0 {
		diff = -diff
	}
	return diff/c < 0.2
}

// SenpaiAdapts reports whether the PSI controller offloaded meaningfully
// deeper on the fast device than on the slow one.
func (r AblationControllerResult) SenpaiAdapts() bool {
	return r.Cell("senpai", "C").SavingsFrac > 1.5*r.Cell("senpai", "B").SavingsFrac
}

// ---------------------------------------------------------------------------
// Ablation: §5.2 tiered backend.

// TierOutcome summarises one backend configuration on a
// mixed-compressibility host.
type TierOutcome struct {
	Backend string
	// NetSavedMiB is resident reduction net of pool overhead, vs baseline.
	NetSavedMiB float64
	// MeanMemPressure over the window.
	MeanMemPressure float64
	// RPS over the window (sum of both apps).
	RPS float64
	// Writebacks and DirectSSD report chain-internal routing — down-chain
	// demotions and admission-threshold skips (zero for the single-tier
	// runs).
	Writebacks, DirectSSD int64
}

// AblationTieredResult compares zswap-only, SSD-only, and the §5.2 tiered
// hierarchy on a host running one compressible and one incompressible
// workload.
type AblationTieredResult struct {
	Zswap, SSD, Tiered TierOutcome
}

// AblationTiered runs the comparison.
func AblationTiered(cfg Config) AblationTieredResult {
	warm := cfg.dur(60*vclock.Minute, 15*vclock.Minute)
	measure := cfg.dur(20*vclock.Minute, 5*vclock.Minute)
	web := cfg.profile("web")
	web.AnonGrowth = false // static footprints isolate backend effects
	ml := cfg.profile("ml")
	capacity := 2 * (web.FootprintBytes + ml.FootprintBytes)

	// zswap-only gets the default generous pool; the tiered hierarchy gets
	// a deliberately tight pool (0.2% of DRAM) — the point of the hierarchy
	// is that the SSD absorbs the overflow, so the DRAM pool can be small.
	tight := backend.DefaultChainSpecs(int64(float64(capacity)*0.002), 0)
	backends := []struct {
		label string
		mode  core.Mode
		tiers []backend.TierSpec
	}{
		{"zswap-only", core.ModeZswap, nil},
		{"ssd-only", core.ModeSSDSwap, nil},
		{"tiered", core.ModeTiered, tight},
	}
	arms := []arm{baseline(core.Options{CapacityBytes: capacity, Seed: cfg.Seed + 1600}, warm, web, ml)}
	for _, b := range backends {
		arms = append(arms, arm{
			opts: core.Options{
				Mode:          b.mode,
				CapacityBytes: capacity,
				DeviceModel:   "C",
				Tiers:         b.tiers,
				Senpai:        cfg.senpai(senpai.ConfigA()),
				Seed:          cfg.Seed + 1600,
			},
			services: []workload.Profile{web, ml},
			warm:     warm,
			measure:  measure,
			step:     10 * vclock.Second,
		})
	}
	type run struct {
		w                     window
		writebacks, directSSD int64
	}
	runs := runArms(arms, func(i int, h host, w window) run {
		if i == 0 {
			return run{w: w} // the baseline has no chain
		}
		return run{w, h.Chain.Demotions(), h.Chain.AdmitSkips()}
	})
	out := make([]TierOutcome, len(backends))
	for i, b := range backends {
		r := runs[i+1]
		out[i] = TierOutcome{
			Backend:         b.label,
			NetSavedMiB:     (runs[0].w.meanNet - r.w.meanNet) / (1 << 20),
			MeanMemPressure: r.w.rootPressure,
			RPS:             r.w.rps,
			Writebacks:      r.writebacks,
			DirectSSD:       r.directSSD,
		}
	}
	return AblationTieredResult{Zswap: out[0], SSD: out[1], Tiered: out[2]}
}

// Render implements Result.
func (r AblationTieredResult) Render() string {
	rows := [][]string{{"Backend", "net saved (MiB)", "mem pressure", "RPS", "writebacks", "direct-to-SSD"}}
	for _, o := range []TierOutcome{r.Zswap, r.SSD, r.Tiered} {
		rows = append(rows, []string{
			o.Backend,
			fmt.Sprintf("%.1f", o.NetSavedMiB),
			fmt.Sprintf("%.4f", o.MeanMemPressure),
			fmt.Sprintf("%.0f", o.RPS),
			fmt.Sprintf("%d", o.Writebacks),
			fmt.Sprintf("%d", o.DirectSSD),
		})
	}
	return "Ablation (§5.2): tiered zswap+SSD hierarchy on mixed compressibility\n" + textplot.Table(rows)
}

// Compile-time interface checks.
var (
	_ Result = AblationReclaimPolicyResult{}
	_ Result = AblationLimitModeResult{}
	_ Result = AblationControllerResult{}
	_ Result = AblationTieredResult{}
)
