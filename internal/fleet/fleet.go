// Package fleet runs populations of simulated servers and aggregates their
// results, the way the paper reports fleet-wide numbers: per-application
// savings come from A/B pairs of identically seeded hosts with offloading
// off and on (the production load-test methodology of §4.2), and fleet
// figures are weighted means across the application mix.
//
// Every host is measured the same way. An Arm describes one host; RunArms
// builds, warms and measures arms on Parallel, the one worker pool. A
// spec's A/B pair (MeasureAll) is two arms, every multi-host exhibit is a
// list of arms, and a SimHost — a rollout member or a twin calibration
// probe — measures each barrier window with the same Window an arm does.
package fleet

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/senpai"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// Spec describes one server configuration in the fleet.
type Spec struct {
	// App is the primary workload's catalog name.
	App string
	// Mode is the offload configuration under test. Under the rollout
	// control plane this is the host's *initial* state only: a pushed
	// rollout.Policy carries its own mode and wins (precedence is
	// documented on rollout.Policy).
	Mode core.Mode
	// Device is the host SSD model letter (default "C"); it also keys the
	// host's device-class cohort for per-device rollout guardrails.
	Device string
	// Scale multiplies all workload footprints (app and tax); default 1.
	// Experiments use reduced scales to keep page-level simulation fast.
	Scale float64
	// CapacityBytes is host DRAM; defaults to twice the app footprint.
	CapacityBytes int64
	// Senpai optionally overrides the controller configuration the host
	// boots with. Under the rollout control plane this override is
	// ignored: the policy in force (baseline or candidate) supplies the
	// Senpai config on every build and push, so a spec-level override
	// cannot fight a staged rollout (pushed policy wins).
	Senpai *senpai.Config
	// Tiers lays out the host's swap chain explicitly (fastest first, see
	// core.Options.Tiers); empty keeps the mode's default layout. Rollout
	// policies may carry a layout of their own (rollout.Policy.Tiers).
	Tiers []backend.TierSpec
	// CXLBytes optionally sizes the byte-addressable far-memory node in
	// ModeCXL; zero keeps the core default (host DRAM size). A positive
	// value also marks the host's device cohort as CXL-bearing.
	CXLBytes int64
	// WithTax co-schedules the datacenter- and microservice-tax sidecars.
	WithTax bool
	// Seed makes the server deterministic; A/B pairs share it.
	Seed uint64
	// Weight is the spec's share of the fleet population (for weighted
	// aggregates); default 1.
	Weight float64
}

// normalize fills the spec's defaults.
func (s Spec) normalize() Spec {
	if s.Device == "" {
		s.Device = "C"
	}
	if s.Scale <= 0 {
		s.Scale = 1
	}
	if s.CapacityBytes <= 0 {
		s.CapacityBytes = 2 * s.appProfile().FootprintBytes
	}
	if s.Weight <= 0 {
		s.Weight = 1
	}
	return s
}

// DeviceClass returns the spec's device-cohort key: the SSD model letter
// with the default model applied, suffixed "+cxl" when the host carries a
// far-memory node — CXL-bearing hosts form their own guardrail cohorts
// because their pressure/savings trade-off is categorically different.
// Rollout guardrail maps are keyed by it.
func (s Spec) DeviceClass() string {
	d := s.Device
	if d == "" {
		d = "C"
	}
	if s.CXLBytes > 0 {
		d += "+cxl"
	}
	return d
}

// DeviceCohorts slices a population by device class: it returns the spec
// indices of each class plus the class keys in sorted order. The rollout
// control plane aggregates and judges each cohort separately.
func DeviceCohorts(specs []Spec) (byClass map[string][]int, classes []string) {
	byClass = make(map[string][]int)
	for i, s := range specs {
		d := s.DeviceClass()
		if _, ok := byClass[d]; !ok {
			classes = append(classes, d)
		}
		byClass[d] = append(byClass[d], i)
	}
	sort.Strings(classes)
	return byClass, classes
}

// appProfile loads the spec's primary workload at the spec scale.
func (s Spec) appProfile() workload.Profile {
	return workload.MustCatalog(s.App).Scale(s.Scale)
}

// arm is the normalized spec's host in mode as a stepped arm: the primary
// app as the one service, the tax sidecars added by the hook when WithTax is
// set (they become containers 1 and 2), sampled every 10 s.
func (s Spec) arm(mode core.Mode, warm, measure vclock.Duration) Arm {
	a := Arm{
		Opts: core.Options{
			Mode:          mode,
			CapacityBytes: s.CapacityBytes,
			DeviceModel:   s.Device,
			Senpai:        s.Senpai,
			Tiers:         s.Tiers,
			CXLBytes:      s.CXLBytes,
			Seed:          s.Seed,
		},
		Services: []workload.Profile{s.appProfile()},
		Warm:     warm,
		Measure:  measure,
		Step:     10 * vclock.Second,
	}
	if s.WithTax {
		a.Hook = func(h *Host) {
			dc, micro := h.AddTaxProfiles(
				workload.MustCatalog("datacenter-tax").Scale(s.Scale),
				workload.MustCatalog("microservice-tax").Scale(s.Scale))
			h.Apps = append(h.Apps, dc, micro)
		}
	}
	return a
}

// BuildHost assembles one standalone server for the spec in the spec's own
// mode and returns it with its primary app. The rollout control plane builds
// fleet members this way: unlike MeasureAll it runs no A/B pair — the caller
// owns the system's clock and telemetry for the life of the host.
func BuildHost(s Spec) (*core.System, *workload.App) {
	s = s.normalize()
	h := s.arm(s.Mode, 0, 0).build()
	return h.System, h.Apps[0]
}

// Measurement compares one spec against its offloading-disabled twin.
type Measurement struct {
	Spec Spec

	// SavingsFrac is the app's net resident-memory reduction relative to
	// baseline (the Fig. 9 metric), pool overhead included.
	SavingsFrac float64
	// AnonSavedFrac / FileSavedFrac decompose SavingsFrac by page type.
	AnonSavedFrac, FileSavedFrac float64

	// Tax savings as fractions of total server memory (the Fig. 10
	// metric); zero unless WithTax.
	DCTaxSavingsOfTotal, MicroTaxSavingsOfTotal float64

	// RPSRatio is TMO throughput over baseline throughput.
	RPSRatio float64
	// OOMEvents from the TMO run.
	OOMEvents int64

	// Telemetry-derived latency quantiles from the TMO run's registry
	// (microseconds): page-fault stall latency and Senpai probe size.
	FaultLatencyP50Us, FaultLatencyP99Us float64
	MemStallP99Us                        float64
	Refaults                             int64
}

// Observer receives each spec, normalized, and its TMO host's final
// telemetry snapshot. It is invoked from RunArms's worker goroutines —
// possibly several at once — so an observer must be safe for concurrent use
// (the tsdb scraper is). It is the hook the observability plane scrapes
// fleet sweeps through.
type Observer func(i int, s Spec, snap telemetry.Snapshot)

// MeasureAll runs every spec's A/B pair — identically seeded hosts with
// offloading off and in the spec's mode, the production load-test method of
// §4.2 — as arms on RunArms, and returns the measurements in spec order.
// warm should cover startup transients; measure is the averaging window.
// Each pair is listed TMO first, so the longer arm starts first. obs, if
// set, sees each TMO host's final snapshot.
func MeasureAll(specs []Spec, warm, measure vclock.Duration, obs Observer) []Measurement {
	ms := make([]Measurement, len(specs))
	arms := make([]Arm, 0, 2*len(specs))
	for i, s := range specs {
		s = s.normalize()
		ms[i].Spec = s
		arms = append(arms, s.arm(s.Mode, warm, measure), s.arm(core.ModeOff, warm, measure))
	}
	ws := RunArms(arms, func(i int, h Host, w Window) Window {
		if i%2 == 0 {
			ms[i/2].readTMO(h)
			if obs != nil {
				obs(i/2, ms[i/2].Spec, h.TelemetrySnapshot())
			}
		}
		return w
	})
	for i := range ms {
		ms[i].compare(ws[2*i+1], ws[2*i])
	}
	return ms
}

// readTMO fills the measurement's readings of the TMO host at run end: the
// whole-run OOM count and the fault, stall and refault figures.
func (m *Measurement) readTMO(h Host) {
	mgr := h.Server.Manager()
	m.OOMEvents = mgr.OOMEvents()
	fl := mgr.FaultLatency()
	m.FaultLatencyP50Us, m.FaultLatencyP99Us = float64(fl.Quantile(0.50)), float64(fl.Quantile(0.99))
	m.MemStallP99Us = float64(h.Server.MemStalls().Quantile(0.99))
	m.Refaults = mgr.Stat().Refaults
}

// compare fills the savings and throughput fields from the baseline and TMO
// windows: the app is container 0, the tax sidecars containers 1 and 2.
func (m *Measurement) compare(base, tmo Window) {
	b, t := base.Containers[0], tmo.Containers[0]
	if baseRes := b.Anon + b.File + b.Pool; baseRes > 0 {
		m.SavingsFrac = (baseRes - (t.Anon + t.File + t.Pool)) / baseRes
		m.AnonSavedFrac = (b.Anon - t.Anon - t.Pool) / baseRes
		m.FileSavedFrac = (b.File - t.File) / baseRes
	}
	if m.Spec.WithTax {
		// Each sidecar carries exactly the pool overhead its own offloaded
		// pages consume, not an even split.
		taxSaved := func(c int) float64 {
			return (base.Containers[c].Current - tmo.Containers[c].Current - tmo.Containers[c].Pool) / float64(m.Spec.CapacityBytes)
		}
		m.DCTaxSavingsOfTotal, m.MicroTaxSavingsOfTotal = taxSaved(1), taxSaved(2)
	}
	if b.Completed > 0 {
		m.RPSRatio = float64(t.Completed) / float64(b.Completed)
	}
}

// Parallel calls fn(i) for every i in [0, n) on at most workers goroutines
// (at least one) and returns when all calls have. It is the one worker pool
// behind fleet sweeps, twin calibration and the fidelity gate, and the
// rollout's per-window host advance. fn writes its results by index, so as
// long as each call is self-contained the output cannot depend on
// scheduling.
func Parallel(n, workers int, fn func(i int)) {
	workers = max(min(workers, n), 1)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// WeightedAppSavings aggregates application resident-memory savings across a
// fleet mix by population weight (the Fig. 9 fleet number; fleetsim's
// bottom line).
func WeightedAppSavings(ms []Measurement) float64 {
	return weighted(ms, func(m Measurement) float64 { return m.SavingsFrac })
}

// WeightedTaxSavings aggregates tax savings across a fleet mix, returning
// (datacenter, microservice) savings as fractions of server memory.
func WeightedTaxSavings(ms []Measurement) (dc, micro float64) {
	return weighted(ms, func(m Measurement) float64 { return m.DCTaxSavingsOfTotal }),
		weighted(ms, func(m Measurement) float64 { return m.MicroTaxSavingsOfTotal })
}

// weighted is the population-weighted mean of f over ms, zero when the
// population carries no weight.
func weighted(ms []Measurement, f func(Measurement) float64) float64 {
	var sum, wsum float64
	for _, m := range ms {
		sum += m.Spec.Weight * f(m)
		wsum += m.Spec.Weight
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// String renders a measurement as one report row.
func (m Measurement) String() string {
	return fmt.Sprintf("%-12s %-9s savings=%5.1f%% (anon %4.1f%% file %4.1f%%) rps=%.2f",
		m.Spec.App, m.Spec.Mode, 100*m.SavingsFrac, 100*m.AnonSavedFrac, 100*m.FileSavedFrac, m.RPSRatio)
}

// DefaultMix returns a representative fleet mix with population weights;
// used by the Fig. 10 tax aggregation.
func DefaultMix(mode core.Mode, seed uint64) []Spec {
	apps := []struct {
		name   string
		weight float64
	}{
		{"web", 0.25}, {"feed", 0.15}, {"cache-a", 0.10}, {"cache-b", 0.10},
		{"ads-a", 0.10}, {"ads-b", 0.10}, {"analytics", 0.10}, {"warehouse", 0.10},
	}
	out := make([]Spec, len(apps))
	for i, a := range apps {
		out[i] = Spec{
			App:     a.name,
			Mode:    mode,
			Weight:  a.weight,
			WithTax: true,
			Seed:    seed + uint64(i)*17,
		}
	}
	return out
}
