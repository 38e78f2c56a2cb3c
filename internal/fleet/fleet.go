// Package fleet runs populations of simulated servers and aggregates their
// results, the way the paper reports fleet-wide numbers: per-application
// savings come from A/B pairs of identically seeded hosts with offloading
// off and on (the production load-test methodology of §4.2), and fleet
// figures are weighted means across the application mix.
package fleet

import (
	"fmt"
	"runtime"
	"sort"
	"sync"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/core"
	"tmo/internal/mm"
	"tmo/internal/place"
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
	// Placement optionally overrides the ModeCXL placement-loop
	// configuration the host boots with. Like Senpai, a pushed rollout
	// policy's placement knobs win over this spec-level value.
	Placement *place.Config
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
	scale := s.Scale
	if scale <= 0 {
		scale = 1
	}
	return workload.MustCatalog(s.App).Scale(scale)
}

// BuildHost assembles one standalone server for the spec in the spec's own
// mode and returns it with its primary app. The rollout control plane builds
// fleet members this way: unlike Measure it runs no A/B pair — the caller
// owns the system's clock and telemetry for the life of the host.
func BuildHost(s Spec) (*core.System, *workload.App) {
	s = s.normalize()
	sys, app, _, _ := buildSystem(s, s.Mode)
	return sys, app
}

// runStats is what one run of one server yields over the measurement
// window: time-averaged resident bytes by group kind and page type, plus
// request throughput.
type runStats struct {
	appAnon, appFile        float64
	dcTax, microTax         float64
	poolForApp              float64
	poolForDC, poolForMicro float64
	completed               int64
	samples                 int
	oomEvents               int64
	deviceWrittenBytes      int64

	// snap is the run's final telemetry-registry snapshot.
	snap telemetry.Snapshot
}

// appResident returns the app's net resident memory including its share of
// the compressed pool.
func (r runStats) appResident() float64 { return r.appAnon + r.appFile + r.poolForApp }

// buildSystem assembles a server for the spec in the given mode.
func buildSystem(s Spec, mode core.Mode) (*core.System, *workload.App, *workload.App, *workload.App) {
	sys := core.New(core.Options{
		Mode:          mode,
		CapacityBytes: s.CapacityBytes,
		DeviceModel:   s.Device,
		Senpai:        s.Senpai,
		Tiers:         s.Tiers,
		CXLBytes:      s.CXLBytes,
		Placement:     s.Placement,
		Seed:          s.Seed,
	})
	app := sys.AddProfile(s.appProfile(), cgroup.Workload)
	var dc, micro *workload.App
	if s.WithTax {
		dc, micro = sys.AddTaxProfiles(
			workload.MustCatalog("datacenter-tax").Scale(s.Scale),
			workload.MustCatalog("microservice-tax").Scale(s.Scale))
	}
	return sys, app, dc, micro
}

// runOne executes the spec in the given mode: warm first, then sample
// resident composition every sampleEvery during the measurement window.
func runOne(s Spec, mode core.Mode, warm, measure vclock.Duration) runStats {
	sys, app, dc, micro := buildSystem(s, mode)
	sys.Run(warm)

	var st runStats
	completedAtStart := app.Completed()
	const sampleEvery = 10 * vclock.Second
	steps := int(measure / sampleEvery)
	if steps < 1 {
		steps = 1
	}
	for i := 0; i < steps; i++ {
		sys.Run(sampleEvery)
		st.appAnon += float64(app.Group.MM().ResidentBytesOf(mm.Anon))
		st.appFile += float64(app.Group.MM().ResidentBytesOf(mm.File))
		pool := float64(sys.Metrics().PoolBytes)
		if pool > 0 {
			// Attribute the compressed pool to groups by their share of
			// offloaded pages, each tax sidecar getting its own share.
			total := app.Group.MM().SwappedBytes()
			dcSw, microSw := int64(0), int64(0)
			if dc != nil {
				dcSw = dc.Group.MM().SwappedBytes()
				microSw = micro.Group.MM().SwappedBytes()
				total += dcSw + microSw
			}
			if total > 0 {
				st.poolForApp += pool * float64(app.Group.MM().SwappedBytes()) / float64(total)
				st.poolForDC += pool * float64(dcSw) / float64(total)
				st.poolForMicro += pool * float64(microSw) / float64(total)
			}
		}
		if dc != nil {
			st.dcTax += float64(dc.Group.MemoryCurrent())
			st.microTax += float64(micro.Group.MemoryCurrent())
		}
		st.samples++
	}
	n := float64(st.samples)
	st.appAnon /= n
	st.appFile /= n
	st.dcTax /= n
	st.microTax /= n
	st.poolForApp /= n
	st.poolForDC /= n
	st.poolForMicro /= n
	st.completed = app.Completed() - completedAtStart
	st.oomEvents = sys.Metrics().OOMEvents
	st.deviceWrittenBytes = sys.Metrics().DeviceWrittenBytes
	st.snap = sys.TelemetrySnapshot()
	return st
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

// TaxSavingsOfTotal is the combined tax savings as a fraction of server
// memory.
func (m Measurement) TaxSavingsOfTotal() float64 {
	return m.DCTaxSavingsOfTotal + m.MicroTaxSavingsOfTotal
}

// Measure runs the spec's A/B pair and reports savings. warm should cover
// startup transients; measure is the averaging window. The baseline and
// TMO servers are fully independent simulations, so the pair runs
// concurrently; results are deterministic because each server has its own
// seeded streams.
func Measure(spec Spec, warm, measure vclock.Duration) Measurement {
	m, _ := measureWithSnap(spec, warm, measure)
	return m
}

// measureWithSnap is Measure plus the TMO run's final telemetry snapshot,
// which MeasureAllWith hands to its observer for TSDB scraping.
func measureWithSnap(spec Spec, warm, measure vclock.Duration) (Measurement, telemetry.Snapshot) {
	spec = spec.normalize()
	var base, tmo runStats
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		base = runOne(spec, core.ModeOff, warm, measure)
	}()
	go func() {
		defer wg.Done()
		tmo = runOne(spec, spec.Mode, warm, measure)
	}()
	wg.Wait()

	m := Measurement{Spec: spec, OOMEvents: tmo.oomEvents}
	if fl, ok := tmo.snap.Get("mm.fault_latency_us"); ok {
		m.FaultLatencyP50Us = fl.Quantile(0.50)
		m.FaultLatencyP99Us = fl.Quantile(0.99)
	}
	if ms, ok := tmo.snap.Get("psi.stall_duration_us", telemetry.Label{Key: "resource", Value: "memory"}); ok {
		m.MemStallP99Us = ms.Quantile(0.99)
	}
	if rf, ok := tmo.snap.Get("mm.refaults"); ok {
		m.Refaults = int64(rf.Value)
	}
	baseRes := base.appResident()
	if baseRes > 0 {
		saved := baseRes - tmo.appResident()
		m.SavingsFrac = saved / baseRes
		m.AnonSavedFrac = (base.appAnon - tmo.appAnon - tmo.poolForApp) / baseRes
		m.FileSavedFrac = (base.appFile - tmo.appFile) / baseRes
	}
	if spec.WithTax {
		// Each sidecar carries exactly the pool overhead its own offloaded
		// pages consume, not an even split.
		cap := float64(spec.CapacityBytes)
		m.DCTaxSavingsOfTotal = (base.dcTax - tmo.dcTax - tmo.poolForDC) / cap
		m.MicroTaxSavingsOfTotal = (base.microTax - tmo.microTax - tmo.poolForMicro) / cap
	}
	if base.completed > 0 {
		m.RPSRatio = float64(tmo.completed) / float64(base.completed)
	}
	return m, tmo.snap
}

// measureWorkers bounds MeasureAll's pool; each measurement already runs
// its A/B pair concurrently, so a handful of slots saturates most hosts.
const measureWorkers = 4

// MeasureAll measures every spec over a small worker pool and returns the
// measurements in spec order. Each spec's simulation is self-contained and
// seeded, and results are written by index, so the output is identical to
// calling Measure sequentially.
func MeasureAll(specs []Spec, warm, measure vclock.Duration) []Measurement {
	return MeasureAllWith(specs, warm, measure, nil)
}

// Observer receives each spec's measurement and the TMO run's final
// telemetry snapshot as it completes. It is invoked from MeasureAllWith's
// worker goroutines — possibly several at once — so an observer must be
// safe for concurrent use (the tsdb scraper is).
type Observer func(i int, m Measurement, snap telemetry.Snapshot)

// MeasureAllWith is MeasureAll with an optional concurrent observer, the
// hook the observability plane scrapes fleet sweeps through.
func MeasureAllWith(specs []Spec, warm, measure vclock.Duration, obs Observer) []Measurement {
	out := make([]Measurement, len(specs))
	workers := runtime.NumCPU()
	if workers > measureWorkers {
		workers = measureWorkers
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				m, snap := measureWithSnap(specs[i], warm, measure)
				out[i] = m
				if obs != nil {
					obs(i, m, snap)
				}
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// WeightedAppSavings aggregates application resident-memory savings across a
// fleet mix by population weight (the Fig. 9 fleet number; fleetsim's
// bottom line).
func WeightedAppSavings(ms []Measurement) float64 {
	var sum, wsum float64
	for _, m := range ms {
		sum += m.Spec.Weight * m.SavingsFrac
		wsum += m.Spec.Weight
	}
	if wsum == 0 {
		return 0
	}
	return sum / wsum
}

// WeightedTaxSavings aggregates tax savings across a fleet mix, returning
// (datacenter, microservice) savings as fractions of server memory.
func WeightedTaxSavings(ms []Measurement) (dc, micro float64) {
	var wsum float64
	for _, m := range ms {
		w := m.Spec.Weight
		dc += w * m.DCTaxSavingsOfTotal
		micro += w * m.MicroTaxSavingsOfTotal
		wsum += w
	}
	if wsum == 0 {
		return 0, 0
	}
	return dc / wsum, micro / wsum
}

// String renders a measurement as one report row.
func (m Measurement) String() string {
	return fmt.Sprintf("%-12s %-9s savings=%5.1f%% (anon %4.1f%% file %4.1f%%) rps=%.2f",
		m.Spec.App, m.Spec.Mode, 100*m.SavingsFrac, 100*m.AnonSavedFrac, 100*m.FileSavedFrac, m.RPSRatio)
}

// Cluster runs n identically configured servers (differing only by seed)
// and invokes visit with each system after building it, before running.
// It is the building block for the Fig. 14 fleet-percentile experiment.
func Cluster(spec Spec, n int, build func(i int, sys *core.System, app *workload.App)) []*core.System {
	spec = spec.normalize()
	out := make([]*core.System, n)
	for i := 0; i < n; i++ {
		s := spec
		s.Seed = spec.Seed + uint64(i)*1000
		sys, app, _, _ := buildSystem(s, s.Mode)
		if build != nil {
			build(i, sys, app)
		}
		out[i] = sys
	}
	return out
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
