// Package rollout is the fleet control plane: it deploys candidate policies
// across a population of simulated hosts the way TMO itself reached Meta's
// fleet — in stages (canary → wider cohorts → fleet-wide), watched through
// aggregated PSI and throughput telemetry, and automatically rolled back to
// the baseline when guardrails trip.
//
// The pushed artifact is a Policy — an offload mode plus a Senpai
// configuration — so a rollout can change *what* a host runs, not just how
// aggressively it trims: mode-changing pushes rebuild the host at a stage
// barrier through the same fleet.BuildHost path a crash/rejoin uses. The
// controller races K candidate policies at once across disjoint cohorts of
// the treated prefix, judges every (candidate, device-class) cohort against
// that class's guardrails, drops cohorts and candidates that trip (hosts
// revert to baseline where — and only where — they must), and promotes the
// best surviving candidate by weighted savings when the final stage begins
// (a single-stage plan races through its stage and promotes at its end).
// The classic one-candidate-vs-baseline rollout is the K=1 special case.
// Which policy a host runs is decided in one place, entitled, and applied
// by one loop, reassign.
//
// The controller owns the hosts (built from fleet.Spec) and advances them in
// fixed virtual-time windows. Hosts within a window run concurrently on a
// bounded worker pool — each host is a self-contained seeded simulation, so
// scheduling order cannot affect results — but every control decision (stage
// advancement, guardrail verdicts, drops, promotion, rollback, host
// lifecycle) is taken single-threaded at the window barrier, with device
// classes and candidates visited in fixed order. The same configuration and
// seed therefore produce a byte-identical rollout event log, even under host
// churn: crash schedules are evaluated deterministically on the rollout
// clock via the chaos engine, and a crashed host rejoins with whatever
// policy its cohort is entitled to at rejoin time.
package rollout

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"tmo/internal/chaos"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/tsdb"
	"tmo/internal/twin"
	"tmo/internal/vclock"
)

// Stage is one step of the rollout plan. Hosts are enrolled in index order:
// a stage with Frac f covers the first ceil(f·N) hosts of the population.
type Stage struct {
	// Name labels the stage in reports and the event log.
	Name string
	// Frac is the cumulative fraction of the fleet enrolled at this stage.
	Frac float64
	// Bake is how many barrier windows the stage must hold its guardrails
	// before the rollout may advance past it.
	Bake int
}

// DefaultPlan is the paper's deployment shape: a small canary, a wider
// confidence cohort, then the fleet.
func DefaultPlan() []Stage {
	return []Stage{
		{Name: "canary", Frac: 0.05, Bake: 4},
		{Name: "stage-2", Frac: 0.25, Bake: 4},
		{Name: "fleet", Frac: 1.00, Bake: 4},
	}
}

// Crash schedules host churn: the host is down while the chaos schedule is
// active (evaluated on the rollout clock at window granularity) and rejoins
// at the first barrier after it clears.
type Crash struct {
	// Host indexes Config.Hosts.
	Host int
	// Schedule shapes the outage; Dur bounds it, Every re-arms it.
	Schedule chaos.Schedule
}

// Config describes one staged rollout.
type Config struct {
	// Hosts is the fleet population. Spec.Mode and Spec.Senpai describe
	// each host's standalone state only — while owned by the controller,
	// the policy in force supplies both (pushed policy wins).
	Hosts []fleet.Spec
	// Baseline is the policy the fleet starts on and rolls back to.
	Baseline Policy
	// Candidates are the policies under rollout. One candidate is the
	// classic staged rollout; K > 1 races the candidates on disjoint
	// cohorts of each stage's treated prefix, drops those that trip their
	// guardrails, and promotes the best survivor at the final stage.
	Candidates []Policy
	// Plan is the stage sequence; default DefaultPlan.
	Plan []Stage
	// Guardrails is the fleet-wide default safety bundle; default
	// DefaultGuardrails.
	Guardrails Guardrails
	// DeviceGuardrails overrides the default bundle per fleet.Spec device
	// class (e.g. stricter IO/PSI limits for slow SSD models). An entry
	// replaces the default wholesale for hosts of its class.
	DeviceGuardrails map[string]Guardrails
	// Window is the barrier window length; default 30s of virtual time.
	Window vclock.Duration
	// WarmWindows is how many windows a host runs before it contributes to
	// cohort aggregates; its pre-rollout RPS/resident baselines are recorded
	// at the end of warm-up. Default 4, minimum 2.
	WarmWindows int
	// SettleWindows run after completion or rollback so the event log
	// captures the fleet settling; default 2.
	SettleWindows int
	// Workers bounds the host worker pool; default 4.
	Workers int
	// Seed derives the crash schedules' random streams.
	Seed uint64
	// Crashes is the host-churn schedule.
	Crashes []Crash
	// Obs attaches the observability plane (TSDB scraping, SLO burn
	// monitors, flight bundles); nil runs without one.
	Obs *ObsConfig
	// Twin enables the two-fidelity fleet layout for 100k+-host rollouts;
	// nil runs every host at full fidelity.
	Twin *TwinConfig
}

// TwinConfig is the two-fidelity fleet layout: per device class the first
// fullHead and last fullTail hosts (in index order) run full page-level
// simulations, and every host between them runs a calibrated analytical
// twin (internal/twin) advancing in O(1) per window. Hosts are enrolled in
// stage cohorts by index order, so head samples land in the canary prefix
// and tail samples in the never-treated control suffix — every stage cohort
// and the control cohort keep full-fidelity anchors.
type TwinConfig struct {
	// Coeffs is the calibration artifact (twin.Calibrate or
	// twin.ReadJSON); required, and it must carry a surface for every spec
	// (device class, mode, layout; see twin.Key) a twin host could be asked
	// to run.
	Coeffs *twin.CoefficientSet
}

// fullHead and fullTail are the per-device-class full-fidelity sample
// counts of a two-fidelity fleet.
const (
	fullHead = 4
	fullTail = 4
)

// normalize fills defaults and validates, panicking on unusable configs the
// way core.New does.
func (cfg Config) normalize() Config {
	if len(cfg.Hosts) == 0 {
		panic("rollout: Hosts required")
	}
	if cfg.Baseline.Name == "" {
		cfg.Baseline.Name = "baseline"
	}
	cfg.Baseline.validate("baseline")
	if len(cfg.Candidates) == 0 {
		panic("rollout: at least one Candidate policy required")
	}
	if len(cfg.Candidates) > len(cfg.Hosts) {
		panic(fmt.Sprintf("rollout: %d candidates cannot race across %d hosts",
			len(cfg.Candidates), len(cfg.Hosts)))
	}
	cands := make([]Policy, len(cfg.Candidates))
	copy(cands, cfg.Candidates)
	cfg.Candidates = cands
	names := map[string]bool{cfg.Baseline.Name: true}
	for i := range cfg.Candidates {
		if cfg.Candidates[i].Name == "" {
			cfg.Candidates[i].Name = fmt.Sprintf("cand-%d", i+1)
		}
		cfg.Candidates[i].validate("candidate")
		if names[cfg.Candidates[i].Name] {
			panic(fmt.Sprintf("rollout: duplicate policy name %q", cfg.Candidates[i].Name))
		}
		names[cfg.Candidates[i].Name] = true
	}
	if len(cfg.Plan) == 0 {
		cfg.Plan = DefaultPlan()
	}
	prev := 0.0
	for i, st := range cfg.Plan {
		if !(st.Frac > 0 && st.Frac <= 1) {
			panic(fmt.Sprintf("rollout: stage %d frac %v outside (0, 1]", i, st.Frac))
		}
		if st.Frac < prev {
			panic(fmt.Sprintf("rollout: stage %d frac %v shrinks the cohort", i, st.Frac))
		}
		prev = st.Frac
		if st.Bake < 1 {
			cfg.Plan[i].Bake = 1
		}
	}
	if (cfg.Guardrails == Guardrails{}) {
		cfg.Guardrails = DefaultGuardrails()
	}
	if len(cfg.DeviceGuardrails) > 0 {
		dg := make(map[string]Guardrails, len(cfg.DeviceGuardrails))
		for d, g := range cfg.DeviceGuardrails {
			if d == "" {
				panic("rollout: DeviceGuardrails key must be a device class (empty key)")
			}
			dg[d] = g
		}
		cfg.DeviceGuardrails = dg
	}
	if cfg.Window <= 0 {
		cfg.Window = 30 * vclock.Second
	}
	switch {
	case cfg.WarmWindows <= 0:
		cfg.WarmWindows = 4
	case cfg.WarmWindows < 2:
		cfg.WarmWindows = 2
	}
	if cfg.SettleWindows <= 0 {
		cfg.SettleWindows = 2
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	for _, cr := range cfg.Crashes {
		if cr.Host < 0 || cr.Host >= len(cfg.Hosts) {
			panic(fmt.Sprintf("rollout: crash host %d out of range", cr.Host))
		}
	}
	if t := cfg.Twin; t != nil {
		if t.Coeffs == nil || len(t.Coeffs.Surfaces) == 0 {
			panic("rollout: Twin.Coeffs required — run a calibration (twin.Calibrate) first")
		}
	}
	return cfg
}

// fidelities names the layout's two fidelities; a host's fid indexes it,
// and it fixes the per-fidelity series order.
var fidelities = []string{fleet.FidelityFull, fleet.FidelityTwin}

// fidTwin is the fid of an analytical twin; full-fidelity hosts have fid 0.
const fidTwin = 1

// fidelityLayout assigns each host index its fid under the twin layout,
// given the fleet's device cohorts (fleet.DeviceCohorts): per device class
// (indices in index order) the first fullHead and last fullTail hosts stay
// full, the span between runs as twins. Classes too small to thin out stay
// entirely full-fidelity.
func fidelityLayout(cfg Config, byDev map[string][]int, devs []string) []int {
	out := make([]int, len(cfg.Hosts))
	if cfg.Twin == nil {
		return out
	}
	for _, d := range devs {
		idxs := byDev[d]
		if fullHead+fullTail >= len(idxs) {
			continue
		}
		for _, i := range idxs[fullHead : len(idxs)-fullTail] {
			out[i] = fidTwin
		}
	}
	return out
}

// checkSurfaces fails at construction, not mid-rollout: every spec a twin
// host could run — its own, under any policy it could be pushed — must
// resolve to a fitted surface.
func checkSurfaces(cfg Config, layout []int) {
	pols := append([]Policy{cfg.Baseline}, cfg.Candidates...)
	seen := map[string]bool{}
	for i, f := range layout {
		if f != fidTwin {
			continue
		}
		for _, p := range pols {
			k := twin.Key(hostSpec(cfg.Hosts[i], p))
			if seen[k] {
				continue
			}
			seen[k] = true
			if _, ok := cfg.Twin.Coeffs.Surfaces[k]; !ok {
				panic(fmt.Sprintf("rollout: twin calibration has no surface for %s — recalibrate covering this class, mode and layout", k))
			}
		}
	}
}

// guardrailsFor resolves the bundle judging a device class's cohorts.
func (cfg Config) guardrailsFor(device string) Guardrails {
	if g, ok := cfg.DeviceGuardrails[device]; ok {
		return g
	}
	return cfg.Guardrails
}

// State is where the rollout stands.
type State int

// The rollout states, in lifecycle order.
const (
	// StateWarming runs every host on the baseline until warm-up completes.
	StateWarming State = iota
	// StateStaging bakes the current stage under guardrail watch.
	StateStaging
	// StateCompleted means a surviving candidate reached the full fleet
	// (minus any device cohorts it was dropped from).
	StateCompleted
	// StateRolledBack means every candidate tripped its guardrails and the
	// baseline was restored everywhere.
	StateRolledBack
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateWarming:
		return "warming"
	case StateStaging:
		return "staging"
	case StateCompleted:
		return "completed"
	case StateRolledBack:
		return "rolled-back"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// host is one fleet member and its control-plane bookkeeping.
type host struct {
	index  int
	spec   fleet.Spec
	device string
	// dev indexes device in Controller.fleetDevices.
	dev    int
	weight float64
	// fid indexes the host's layout fidelity in fidelities; fixed for the
	// host's lifetime.
	fid int

	sim     fleet.HostSim
	swapCap int64
	// latchFrac is the device class's swap-exhaustion latch threshold.
	latchFrac float64
	// runMode is the offload mode of the currently built simulation.
	runMode core.Mode

	// Lifecycle: wantDown is written by the chaos crash fault (evaluated
	// single-threaded at the barrier); down/incarnation track the applied
	// state.
	wantDown    bool
	down        bool
	incarnation int
	crashes     int
	rejoins     int
	rebuilds    int
	upWindows   int

	// slot is the candidate the current stage's rotation gave the host, -1
	// when every racing candidate is barred from its device class.
	slot int
	// assigned is the candidate index whose policy the host runs, or boots
	// with while down; -1 means baseline (control cohort). reassign keeps
	// it equal to entitled(h) at every barrier; only Controller.assign
	// writes it.
	assigned int

	// v is the last window's vitals.
	v fleet.Vitals

	// Accumulated over the host's life.
	oomTotal    int64
	swapLatched bool

	// norm is the pre-rollout reference fixed at the end of the first
	// completed warm-up (baselineSet); kept across later crashes and
	// rebuilds so a rejoined host is judged against its own norm.
	baselineSet bool
	norm        fleet.Norm
}

// eligible reports whether the host's telemetry belongs in cohort
// aggregates: up, past warm-up since its last (re)build, with a recorded
// baseline.
func (h *host) eligible(warm int) bool {
	return !h.down && h.baselineSet && h.upWindows >= warm
}

// candState is one candidate policy's racing state.
type candState struct {
	idx int
	pol Policy
	// dropped means the candidate is out of the race everywhere.
	dropped bool
	// assigned counts the hosts assigned the candidate, up or down.
	assigned int
	// tripped/detail record the (last) guardrail that dropped a cohort.
	tripped string
	detail  string
	// excluded device classes: cohorts this candidate was dropped from.
	excluded map[string]bool
	// acc and dev accumulate the current stage, candidate-wide and per
	// device class; life accumulates the whole race for promotion scoring.
	acc, life accum
	dev       map[string]*accum
}

// excludedList returns the dropped device classes in sorted order.
func (cs *candState) excludedList() []string {
	out := make([]string, 0, len(cs.excluded))
	for d := range cs.excluded {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// accum accumulates one cohort's window readings over a stage: means over
// the windows with contributing hosts, OOM kills summed, and host and latch
// counts as of the latest window.
type accum struct {
	windows                              int
	pressureSum, rpsRatioSum, savingsSum float64
	ooms                                 int64
	hosts, latched                       int
}

// fold adds one window's reading of the cohort and its savings vs control.
func (a *accum) fold(s CohortStats, savings float64) {
	a.ooms += s.OOMKills
	a.hosts, a.latched = s.Hosts, s.SwapLatched
	if s.Hosts == 0 {
		return
	}
	a.windows++
	a.pressureSum += s.MemPressure
	a.rpsRatioSum += s.RPSRatio
	a.savingsSum += savings
}

// stats folds the accumulator into the stats the guardrails judge.
func (a *accum) stats(device string) CohortStats {
	s := CohortStats{Device: device, Hosts: a.hosts, OOMKills: a.ooms, SwapLatched: a.latched, RPSRatio: 1}
	if a.windows > 0 {
		s.MemPressure = a.pressureSum / float64(a.windows)
		s.RPSRatio = a.rpsRatioSum / float64(a.windows)
	}
	return s
}

// savings is the mean weighted resident savings relative to control.
func (a *accum) savings() float64 {
	if a.windows == 0 {
		return 0
	}
	return a.savingsSum / float64(a.windows)
}

// Controller drives one staged rollout.
type Controller struct {
	cfg          Config
	hosts        []*host
	cands        []*candState
	fleetDevices []string
	eng          *chaos.Engine

	// up lists the hosts up, in index order; lifecycle keeps it current,
	// never while fleet.Parallel runs. full lists the full-fidelity hosts
	// in index order, and crashHosts those Config.Crashes names.
	up, full, crashHosts []*host
	// footprints holds each twin's twin.Footprint by (app, scale).
	footprints map[appScale]int64

	reg *telemetry.Registry

	now        vclock.Time
	window     int
	state      State
	stageIdx   int
	treated    int
	settleLeft int
	// tripped names the guardrail that forced the rollback: that of the
	// last candidate to drop.
	tripped string
	// winner is the promoted candidate index; -1 until promotion.
	winner int

	// events is the rollout's one decision log: unbounded, because
	// EventLog is the whole run.
	events  []trace.Record
	reports []StageReport

	// Observability plane; nil when Config.Obs is unset.
	obs     *obsState
	flights []tsdb.FlightBundle

	// recalibAdvised counts twin-drift burn alerts: each one is standing
	// advice to re-probe the calibration surface before trusting further
	// twin cohort verdicts.
	recalibAdvised int64

	telAdvance, telRollback, telPush, telRebuild, telDrop, telPromote, telCrash, telRejoin *telemetry.Counter
}

// New builds the fleet (every host starts on the baseline policy) and arms
// the crash schedules.
func New(cfg Config) *Controller {
	cfg = cfg.normalize()
	c := &Controller{
		cfg:    cfg,
		winner: -1,
		reg:    telemetry.NewRegistry(),
	}
	c.obs = newObsState(cfg, c.reg)
	c.telAdvance = c.reg.Counter("rollout.stage_advances")
	c.telRollback = c.reg.Counter("rollout.rollbacks")
	c.telPush = c.reg.Counter("rollout.policy_pushes")
	c.telRebuild = c.reg.Counter("rollout.mode_rebuilds")
	c.telDrop = c.reg.Counter("rollout.candidate_drops")
	c.telPromote = c.reg.Counter("rollout.promotions")
	c.telCrash = c.reg.Counter("rollout.host_crashes")
	c.telRejoin = c.reg.Counter("rollout.host_rejoins")
	c.reg.CounterFunc("rollout.recalib_advised", func() int64 { return c.recalibAdvised })
	c.reg.GaugeFunc("rollout.stage", func() float64 { return float64(c.stageIdx) })
	c.reg.GaugeFunc("rollout.treated_hosts", func() float64 { return float64(c.treated) })
	c.reg.GaugeFunc("rollout.candidates_alive", func() float64 { return float64(c.aliveCount()) })

	byDev, devs := fleet.DeviceCohorts(cfg.Hosts)
	c.fleetDevices = devs
	devIdx := map[string]int{}
	for i, d := range c.fleetDevices {
		devIdx[d] = i
	}
	for i, pol := range cfg.Candidates {
		c.cands = append(c.cands, &candState{idx: i, pol: pol, excluded: map[string]bool{}})
	}
	layout := fidelityLayout(cfg, byDev, devs)
	if cfg.Twin != nil {
		checkSurfaces(cfg, layout)
	}
	// The records are laid out serially; the simulations, each seeded from
	// its own host, are built on the worker pool.
	recs := make([]host, len(cfg.Hosts))
	c.hosts = make([]*host, len(cfg.Hosts))
	c.footprints = map[appScale]int64{}
	for i, s := range cfg.Hosts {
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		device := s.DeviceClass()
		h := &recs[i]
		*h = host{
			index:     i,
			spec:      s,
			device:    device,
			dev:       devIdx[device],
			weight:    w,
			fid:       layout[i],
			assigned:  -1,
			latchFrac: cfg.guardrailsFor(device).SwapUtilizationLatch,
		}
		c.hosts[i] = h
		if h.fid == fidTwin {
			k := appScale{s.App, s.Scale}
			if _, ok := c.footprints[k]; !ok {
				c.footprints[k] = twin.Footprint(s)
			}
		} else {
			c.full = append(c.full, h)
		}
	}
	fleet.Parallel(len(c.hosts), cfg.Workers, func(i int) { c.buildHost(c.hosts[i]) })
	c.up = slices.Clone(c.hosts)

	c.eng = chaos.NewEngine(chaos.Host{
		Seed:      cfg.Seed ^ 0x5011011, // distinct stream from any host's own seed
		Telemetry: c.reg,
	})
	for _, cr := range cfg.Crashes {
		h := c.hosts[cr.Host]
		c.eng.Add(fmt.Sprintf("host-%d", cr.Host),
			chaos.Fault{Kind: "host-crash", Set: func(_ vclock.Time, level float64) {
				h.wantDown = level > 0
			}}, cr.Schedule)
		if !slices.Contains(c.crashHosts, h) {
			c.crashHosts = append(c.crashHosts, h)
		}
	}
	slices.SortFunc(c.crashHosts, byIndex)
	return c
}

// appScale keys twin footprints, which depend only on the app and scale.
type appScale struct {
	app   string
	scale float64
}

// byIndex orders hosts by index.
func byIndex(a, b *host) int { return cmp.Compare(a.index, b.index) }

// Telemetry exposes the control plane's metrics registry (stage gauges,
// rollback/push/drop/promotion/lifecycle counters, chaos injections).
func (c *Controller) Telemetry() *telemetry.Registry { return c.reg }

// policyFor resolves the policy of the host's assigned candidate.
func (c *Controller) policyFor(h *host) Policy {
	if h.assigned >= 0 {
		return c.cands[h.assigned].pol
	}
	return c.cfg.Baseline
}

// aliveCount is how many candidates are still racing.
func (c *Controller) aliveCount() int {
	n := 0
	for _, cand := range c.cands {
		if !cand.dropped {
			n++
		}
	}
	return n
}

// hostSpec is the spec a host runs under pol: the policy's mode and Senpai
// config, and its chain layout where it carries one, override the host's
// own (pushed policy wins over Spec.Senpai).
func hostSpec(s fleet.Spec, pol Policy) fleet.Spec {
	s.Mode = pol.Mode
	cfg := pol.Config
	s.Senpai = &cfg
	if len(pol.Tiers) > 0 {
		s.Tiers = pol.Tiers
	}
	return s
}

// buildHost assembles (or reassembles, after a crash or a mode-changing
// push) the host's simulation under the policy its cohort is currently
// entitled to. Incarnations perturb the seed so a rebooted host does not
// replay its previous life — twins included: a rebuilt twin gets a fresh
// splitmix64 stream from the same perturbed seed a full host would.
func (c *Controller) buildHost(h *host) {
	pol := c.policyFor(h)
	spec := hostSpec(h.spec, pol)
	spec.Seed = h.spec.Seed + uint64(h.incarnation)*0x9e3779b9
	if h.fid == fidTwin {
		// Surface presence was validated at construction.
		sur, _ := c.cfg.Twin.Coeffs.Lookup(spec)
		h.sim = twin.NewHost(spec, sur, spec.Seed, c.footprints[appScale{h.spec.App, h.spec.Scale}])
	} else {
		h.sim = fleet.NewSimHost(spec)
	}
	h.runMode = pol.Mode
	h.swapCap = h.sim.SwapCapacityBytes()
	h.upWindows = 0
	if !h.baselineSet {
		// A warm-up cut short by a crash starts over with the new life.
		h.norm = fleet.Norm{}
	}
}

// pushPolicy applies the host's entitled policy to a live host: a live
// Senpai config swap when the mode already matches, a full rebuild (the
// crash/rejoin path) when the push changes the offload mode. Returns
// whether the host was rebuilt.
func (c *Controller) pushPolicy(h *host) bool {
	pol := c.policyFor(h)
	c.telPush.Inc()
	if pol.Mode != h.runMode {
		from := h.runMode
		h.incarnation++
		h.rebuilds++
		c.buildHost(h)
		c.telRebuild.Inc()
		c.record(trace.KindHostRebuild, c.hostName(h),
			"policy %s: mode %s -> %s, incarnation %d", pol.Name, from, pol.Mode, h.incarnation)
		return true
	}
	h.sim.SetSenpaiConfig(pol.Config)
	return false
}

// hostName labels a host in the event log.
func (c *Controller) hostName(h *host) string {
	return fmt.Sprintf("host-%d/%s", h.index, h.spec.App)
}

// record appends one decision to the deterministic rollout event log.
func (c *Controller) record(kind trace.Kind, subject, format string, args ...any) {
	c.events = append(c.events, trace.Note(c.now, kind, subject, fmt.Sprintf(format, args...)))
}

// Run executes the whole plan — warm-up, stages, and the settle tail after
// completion or rollback — and returns the scorecard.
func (c *Controller) Run() Result {
	for !c.step() {
	}
	return c.result()
}

// step runs one window up to and through its barrier; it returns true when
// the rollout (including its settle tail) is over.
func (c *Controller) step() bool {
	c.lifecycle()
	c.advance()
	c.now = c.now.Add(c.cfg.Window)
	c.window++
	return c.barrier()
}

// entitled is the one rule for which candidate (or baseline, -1) a host
// runs: baseline after a rollback or outside the treated prefix; otherwise
// the promoted winner or, before promotion, the candidate the stage's
// rotation gave it — and baseline again if that candidate is dropped or
// barred from the host's device class.
func (c *Controller) entitled(h *host) int {
	if c.state == StateRolledBack || h.index >= c.treated {
		return -1
	}
	k := h.slot
	if c.winner >= 0 {
		k = c.winner
	}
	if k < 0 || c.cands[k].dropped || c.cands[k].excluded[h.device] {
		return -1
	}
	return k
}

// assign sets the candidate the host is assigned, keeping each candidate's
// assigned count.
func (c *Controller) assign(h *host, k int) {
	if h.assigned >= 0 {
		c.cands[h.assigned].assigned--
	}
	if k >= 0 {
		c.cands[k].assigned++
	}
	h.assigned = k
}

// reassign applies entitled to every host in index order: a host whose
// entitlement changed takes it, and is pushed the new policy if it is up
// (a down host boots with it when it rejoins). It returns the hosts pushed
// and how many of those pushes rebuilt the host.
func (c *Controller) reassign() (pushed []*host, rebuilt int) {
	for _, h := range c.hosts {
		k := c.entitled(h)
		if k == h.assigned {
			continue
		}
		c.assign(h, k)
		if h.down {
			continue
		}
		if c.pushPolicy(h) {
			rebuilt++
		}
		pushed = append(pushed, h)
	}
	return pushed, rebuilt
}

// lifecycle evaluates the crash schedules at the current barrier and applies
// pending transitions to the hosts they name, in index order: a crashing
// host's simulation is discarded and it leaves the up list; a rejoining
// host boots a fresh incarnation under the policy it is assigned, which
// reassign kept current while it was down, and takes its place in the up
// list again.
func (c *Controller) lifecycle() {
	c.eng.Tick(c.now)
	for _, h := range c.crashHosts {
		pos, _ := slices.BinarySearchFunc(c.up, h, byIndex)
		switch {
		case h.wantDown && !h.down:
			h.down = true
			h.crashes++
			h.sim = nil
			c.up = slices.Delete(c.up, pos, pos+1)
			c.telCrash.Inc()
			c.record(trace.KindHostCrash, c.hostName(h), "incarnation %d down", h.incarnation)
			c.dumpFlight(h, "crash")
		case !h.wantDown && h.down:
			h.down = false
			h.incarnation++
			h.rejoins++
			c.buildHost(h)
			c.up = slices.Insert(c.up, pos, h)
			c.telRejoin.Inc()
			c.record(trace.KindHostRejoin, c.hostName(h), "incarnation %d up, policy=%s",
				h.incarnation, c.policyFor(h).Name)
		}
	}
}

// twinBlock is how many consecutive up hosts one worker-pool unit of
// advance walks for twins.
const twinBlock = 1024

// advance runs every live host through the next window on the worker pool:
// each full-fidelity host is a unit of its own (empty while the host is
// down), handed out first so the slowest units start earliest, and the
// twins follow in blocks of twinBlock up hosts (a block skips the anchors
// in it). Each worker writes only its own hosts' fields, and aggregation
// happens later in index order, so concurrency cannot perturb results.
func (c *Controller) advance() {
	blocks := 0
	if c.cfg.Twin != nil {
		blocks = (len(c.up) + twinBlock - 1) / twinBlock
	}
	full, up := c.full, c.up
	fleet.Parallel(len(full)+blocks, c.cfg.Workers, func(i int) {
		if i < len(full) {
			if h := full[i]; !h.down {
				c.advanceHost(h)
			}
			return
		}
		lo := (i - len(full)) * twinBlock
		for _, h := range up[lo:min(lo+twinBlock, len(up))] {
			if h.fid == fidTwin {
				c.advanceHost(h)
			}
		}
	})
}

// advanceHost runs one host for a window and samples its vitals. Both
// fidelities surface the same shape (fleet.Vitals), so everything from here
// up — aggregation, guardrails, monitors, promotion — is fidelity-blind.
func (c *Controller) advanceHost(h *host) {
	v := h.sim.Advance(c.cfg.Window)
	h.v = v
	h.oomTotal += v.OOMKills
	if h.swapCap > 0 && h.latchFrac > 0 &&
		float64(v.SwapStoredBytes) >= h.latchFrac*float64(h.swapCap) {
		h.swapLatched = true
	}
	h.upWindows++
	if !h.baselineSet {
		h.baselineSet = h.norm.Warm(v, c.cfg.WarmWindows)
	}
}

// candWindow is one candidate's readings over the window just completed:
// the candidate-wide cohort with its weighted resident savings vs control,
// and one cohort per device class where the candidate had an up host, in
// fleetDevices order.
type candWindow struct {
	stats   CohortStats
	savings float64
	dev     []CohortStats
}

// tally is one cohort's sums over one window: weighted readings over its
// eligible hosts, and OOM kills and swap latches over every up host.
type tally struct {
	w, press, rps, res float64
	hosts, up          int
	ooms               int64
	latched            int
}

// sample adds one eligible host's readings at weight w.
func (t *tally) sample(w, press, rps, res float64) {
	t.w += w
	t.press += w * press
	t.rps += w * rps
	t.res += w * res
	t.hosts++
}

// add merges another cohort's sums into t.
func (t *tally) add(o *tally) {
	t.w += o.w
	t.press += o.press
	t.rps += o.rps
	t.res += o.res
	t.hosts += o.hosts
	t.up += o.up
	t.ooms += o.ooms
	t.latched += o.latched
}

// stats reads the tally as cohort stats: weighted mean pressure, and
// weighted mean normalized RPS over ctrlRPS (the control cohort's mean,
// applied when positive).
func (t *tally) stats(device string, ctrlRPS float64) CohortStats {
	s := CohortStats{Device: device, Hosts: t.hosts, OOMKills: t.ooms, SwapLatched: t.latched, RPSRatio: 1}
	if t.w > 0 {
		s.MemPressure = t.press / t.w
		s.RPSRatio = t.rps / t.w
		if ctrlRPS > 0 {
			s.RPSRatio /= ctrlRPS
		}
	}
	return s
}

// windowTally is the window just completed, summed in one pass over the
// up hosts in index order: one cohort cell per (cohort, device class), the
// fleet-wide control cohort host by host, and one fidelity cell per
// (device class, fidelity) over the treated hosts. Each cell adds its hosts
// in index order, so the float order is fixed and results are
// deterministic.
type windowTally struct {
	// cells[(k+1)*nd+d] is cohort k's (control: -1) device class d, where
	// nd is the number of fleet device classes.
	cells []tally
	ctrl  tally
	// fid[2*d+f] tallies device class d's eligible treated hosts at
	// fidelities[f] with unit weights, so its stats are plain means.
	fid []tally
}

// tallyWindow makes the window's one pass over the up hosts.
func (c *Controller) tallyWindow() *windowTally {
	nd := len(c.fleetDevices)
	wt := &windowTally{cells: make([]tally, (len(c.cands)+1)*nd), fid: make([]tally, 2*nd)}
	for _, h := range c.up {
		t := &wt.cells[(h.assigned+1)*nd+h.dev]
		t.up++
		t.ooms += h.v.OOMKills
		if h.swapLatched {
			t.latched++
		}
		if !h.eligible(c.cfg.WarmWindows) {
			continue
		}
		rps, res := h.norm.Ratios(h.v)
		t.sample(h.weight, h.v.Pressure, rps, res)
		if h.assigned < 0 {
			wt.ctrl.sample(h.weight, h.v.Pressure, rps, res)
		} else {
			wt.fid[2*h.dev+h.fid].sample(1, h.v.Pressure, 0, 0)
		}
	}
	return wt
}

// windowStats aggregates the window's tally per candidate and per
// device-class cohort: weighted mean pressure, norm-relative throughput
// against the control cohort (device-matched where control hosts of the
// class exist), OOM kills, swap latches, and weighted resident savings vs
// control. A candidate-wide tally is its cells added in fleetDevices order.
func (c *Controller) windowStats(wt *windowTally) []candWindow {
	nd := len(c.fleetDevices)
	cells, ctrl := wt.cells, wt.ctrl

	// Fleet-wide control means; 1.0 (the host's own norm) when the control
	// cohort is empty.
	cRPS, cRes := 1.0, 1.0
	if ctrl.w > 0 {
		cRPS, cRes = ctrl.rps/ctrl.w, ctrl.res/ctrl.w
	}
	out := make([]candWindow, len(c.cands))
	for k := range out {
		var sum tally
		for d, device := range c.fleetDevices {
			t := &cells[(k+1)*nd+d]
			sum.add(t)
			if t.up == 0 {
				continue
			}
			// Device-matched control where available.
			dcRPS := cRPS
			if cd := &cells[d]; cd.w > 0 {
				dcRPS = cd.rps / cd.w
			}
			out[k].dev = append(out[k].dev, t.stats(device, dcRPS))
		}
		out[k].stats = sum.stats("", cRPS)
		if sum.w > 0 && cRes > 0 {
			out[k].savings = 1 - (sum.res/sum.w)/cRes
		}
	}
	return out
}

// barrier is the single-threaded decision point after every window. It
// returns true when the rollout (including its settle tail) is over.
func (c *Controller) barrier() bool {
	// The fidelity series want the tally in every state, the verdict only
	// while staging.
	var wt *windowTally
	if c.state == StateStaging || (c.obs != nil && c.cfg.Twin != nil) {
		wt = c.tallyWindow()
	}
	var cws []candWindow
	if c.state == StateStaging {
		cws = c.windowStats(wt)
	}
	// The observability plane sees the window before the verdict does, so
	// a burn alert always precedes the guardrail trip it anticipates.
	c.observe(cws, wt)
	switch c.state {
	case StateWarming:
		if c.window >= c.cfg.WarmWindows {
			c.beginStage(0)
		}
	case StateStaging:
		c.fold(cws)
		c.judge()
		if c.aliveCount() == 0 {
			c.rollback()
		} else if c.bakeDone() {
			c.finishStage()
		}
	case StateCompleted, StateRolledBack:
		c.settleLeft--
		if c.settleLeft <= 0 {
			return true
		}
	}
	return false
}

// fold merges the window aggregates into the per-candidate stage and
// lifetime accumulators.
func (c *Controller) fold(cws []candWindow) {
	for k, cand := range c.cands {
		cw := &cws[k]
		cand.acc.fold(cw.stats, cw.savings)
		cand.life.fold(cw.stats, cw.savings)
		for _, s := range cw.dev {
			a := cand.dev[s.Device]
			if a == nil {
				a = &accum{}
				cand.dev[s.Device] = a
			}
			a.fold(s, 0)
		}
	}
}

// judge checks every live (candidate, device-class) cohort against its
// class's guardrails on stage-cumulative aggregates, dropping cohorts that
// trip — and whole candidates once every device class has tripped.
func (c *Controller) judge() {
	for _, cand := range c.cands {
		if cand.dropped {
			continue
		}
		for _, d := range c.fleetDevices {
			if cand.excluded[d] {
				continue
			}
			a := cand.dev[d]
			if a == nil {
				continue
			}
			g := c.cfg.guardrailsFor(d)
			if name, detail := g.Check(a.stats(d)); name != "" {
				c.dropDevice(cand, d, name, detail)
			}
		}
		if !cand.dropped && len(cand.excluded) == len(c.fleetDevices) {
			c.dropCandidate(cand)
		}
	}
}

// dropDevice bars the candidate from one device class for the rest of the
// rollout, which rolls that (candidate, device-class) cohort back to
// baseline — only where the guardrail says it must.
func (c *Controller) dropDevice(cand *candState, device, guardrail, detail string) {
	cand.excluded[device] = true
	cand.tripped = guardrail
	cand.detail = detail
	c.reg.Counter("rollout.guardrail_trips",
		telemetry.Label{Key: "guardrail", Value: guardrail},
		telemetry.Label{Key: "candidate", Value: cand.pol.Name},
		telemetry.Label{Key: "device", Value: device}).Inc()
	c.record(trace.KindRolloutTrip, cand.pol.Name+"@"+device, "%s: %s", guardrail, detail)
	pushed, _ := c.reassign()
	c.record(trace.KindRolloutDrop, cand.pol.Name+"@"+device,
		"device cohort dropped, baseline restored on %d hosts", len(pushed))
	// Every host of the tripped cohort ships its post-mortem (crashed
	// hosts dumped theirs when they went down).
	for _, h := range pushed {
		c.dumpFlight(h, "guardrail-"+guardrail)
	}
}

// dropCandidate takes a candidate out of the race everywhere; the last one
// racing names the rollback its drop forces.
func (c *Controller) dropCandidate(cand *candState) {
	cand.dropped = true
	if c.aliveCount() == 0 {
		c.tripped = cand.tripped
	}
	c.telDrop.Inc()
	pushed, _ := c.reassign()
	c.record(trace.KindRolloutDrop, cand.pol.Name,
		"candidate dropped (%s), baseline restored on %d hosts", cand.tripped, len(pushed))
}

// bakeDone reports whether every live candidate with hosts in the race has
// held its guardrails for the stage's bake. Candidates without assigned
// hosts this stage (e.g. a canary smaller than the field) do not gate.
func (c *Controller) bakeDone() bool {
	bake := c.cfg.Plan[c.stageIdx].Bake
	for _, cand := range c.cands {
		if cand.dropped || cand.assigned == 0 {
			continue
		}
		if cand.acc.windows < bake {
			return false
		}
	}
	return true
}

// cohortSize is how many hosts, in index order, a stage enrolling the
// cumulative fraction frac treats: ceil(frac·N), at least one.
func (c *Controller) cohortSize(frac float64) int {
	return max(1, min(len(c.hosts), int(math.Ceil(frac*float64(len(c.hosts))))))
}

// beginStage enrolls the stage's cohort, rotates it among the surviving
// candidates (the promoted winner takes the final stage of a multi-stage
// plan alone), and pushes each newly entitled policy — rebuilding hosts
// whose mode changes.
func (c *Controller) beginStage(i int) {
	c.stageIdx = i
	c.state = StateStaging
	for _, cand := range c.cands {
		cand.acc, cand.dev = accum{}, map[string]*accum{}
	}
	st := c.cfg.Plan[i]
	c.treated = c.cohortSize(st.Frac)
	if i > 0 && i == len(c.cfg.Plan)-1 && c.winner < 0 {
		c.promote()
	}
	var alive []*candState
	for _, cand := range c.cands {
		if !cand.dropped {
			alive = append(alive, cand)
		}
	}
	for _, h := range c.hosts[:c.treated] {
		h.slot = -1
		for j := range alive {
			if cand := alive[(h.index+j)%len(alive)]; !cand.excluded[h.device] {
				h.slot = cand.idx
				break
			}
		}
	}
	pushed, rebuilt := c.reassign()
	var cohorts strings.Builder
	for _, cand := range c.cands {
		if cand.dropped {
			continue
		}
		fmt.Fprintf(&cohorts, " %s=%d", cand.pol.Name, cand.assigned)
	}
	c.record(trace.KindRolloutStage, st.Name,
		"begin: %d/%d hosts treated;%s (%d pushed, %d rebuilt)",
		c.treated, len(c.hosts), cohorts.String(), len(pushed), rebuilt)
	if len(pushed) > 0 {
		c.record(trace.KindRolloutPush, st.Name, "policies pushed to %d hosts", len(pushed))
	}
}

// promote picks the surviving candidate with the best lifetime weighted
// savings (ties break toward the earlier candidate) as the rollout's winner;
// the final stage carries it alone.
func (c *Controller) promote() {
	best := -1
	for k, cand := range c.cands {
		if cand.dropped {
			continue
		}
		if best < 0 || cand.life.savings() > c.cands[best].life.savings() {
			best = k
		}
	}
	if best < 0 {
		return
	}
	c.winner = best
	c.telPromote.Inc()
	var scores strings.Builder
	for _, cand := range c.cands {
		if cand.dropped {
			continue
		}
		fmt.Fprintf(&scores, " %s=%.2f%%", cand.pol.Name, 100*cand.life.savings())
	}
	c.record(trace.KindRolloutPromote, c.cands[best].pol.Name,
		"promoted on weighted savings over %d windows:%s", c.cands[best].life.windows, scores.String())
}

// candReports snapshots every candidate's stage accumulators into reports,
// in candidate order with device cohorts sorted.
func (c *Controller) candReports(terminal string) []CandidateStageReport {
	out := make([]CandidateStageReport, 0, len(c.cands))
	for _, cand := range c.cands {
		r := CandidateStageReport{
			Policy:         cand.pol.Name,
			Windows:        cand.acc.windows,
			Stats:          cand.acc.stats(""),
			SavingsFrac:    cand.acc.savings(),
			Tripped:        cand.tripped,
			Detail:         cand.detail,
			DroppedDevices: cand.excludedList(),
		}
		for _, d := range c.fleetDevices {
			if a := cand.dev[d]; a != nil {
				r.Cohorts = append(r.Cohorts, a.stats(d))
			}
		}
		switch {
		case cand.dropped:
			r.Verdict = "dropped"
		case cand.assigned == 0:
			r.Verdict = "idle"
		default:
			r.Verdict = terminal
		}
		out = append(out, r)
	}
	return out
}

// finishStage records the stage's report and advances the plan (or
// completes the rollout at the last stage).
func (c *Controller) finishStage() {
	st := c.cfg.Plan[c.stageIdx]
	last := c.stageIdx == len(c.cfg.Plan)-1
	verdict := "advance"
	if last {
		verdict = "complete"
	}
	if last && c.winner < 0 {
		// Single-stage plans race and promote in the same stage.
		c.promote()
	}
	c.reports = append(c.reports, StageReport{
		Stage:      st,
		Verdict:    verdict,
		Candidates: c.candReports(verdict),
	})
	c.telAdvance.Inc()
	for _, cand := range c.cands {
		if cand.dropped || cand.acc.windows == 0 {
			continue
		}
		stats := cand.acc.stats("")
		c.record(trace.KindRolloutStage, st.Name,
			"%s held over %d windows: psi=%.4f rps=%.3f oom=%d latched=%d savings=%.1f%%",
			cand.pol.Name, cand.acc.windows, stats.MemPressure, stats.RPSRatio,
			stats.OOMKills, stats.SwapLatched, 100*cand.acc.savings())
	}
	if last {
		// Converge the treated prefix on the winner: hosts still carrying a
		// losing candidate (single-stage plans promote only now) move over.
		c.reassign()
		c.state = StateCompleted
		c.settleLeft = c.cfg.SettleWindows
		name, on := "", 0
		if c.winner >= 0 {
			name, on = c.cands[c.winner].pol.Name, c.cands[c.winner].assigned
		}
		c.record(trace.KindRolloutComplete, "fleet",
			"policy %s on %d/%d hosts", name, on, len(c.hosts))
		return
	}
	c.beginStage(c.stageIdx + 1)
}

// rollback ends the rollout after every candidate tripped: the per-cohort
// drops already restored the baseline everywhere (crashed hosts will rejoin
// on baseline), so this just records the terminal verdict.
func (c *Controller) rollback() {
	st := c.cfg.Plan[c.stageIdx]
	c.reports = append(c.reports, StageReport{
		Stage:      st,
		Verdict:    "rollback",
		Candidates: c.candReports("dropped"),
	})
	c.treated = 0
	c.state = StateRolledBack
	c.settleLeft = c.cfg.SettleWindows
	c.telRollback.Inc()
	c.record(trace.KindRolloutRollback, st.Name,
		"all %d candidates dropped, fleet on baseline", len(c.cands))
}

// result assembles the scorecard.
func (c *Controller) result() Result {
	r := Result{
		State:            c.state,
		TrippedGuardrail: c.tripped,
		Stages:           c.reports,
		Events:           c.events,
		Flights:          c.flights,
		CanaryHosts:      c.cohortSize(c.cfg.Plan[0].Frac),
		Window:           c.cfg.Window,
		Duration:         vclock.Duration(c.now),
		Hosts:            make([]HostReport, 0, len(c.hosts)),
	}
	if c.state == StateCompleted && c.winner >= 0 {
		r.Promoted = c.cands[c.winner].pol.Name
	}
	for _, cand := range c.cands {
		r.Candidates = append(r.Candidates, CandidateOutcome{
			Policy:          cand.pol.Name,
			Mode:            cand.pol.Mode.String(),
			Dropped:         cand.dropped,
			Tripped:         cand.tripped,
			Detail:          cand.detail,
			ExcludedDevices: cand.excludedList(),
			MeanSavingsFrac: cand.life.savings(),
			Windows:         cand.life.windows,
			Promoted:        c.state == StateCompleted && cand.idx == c.winner,
		})
	}
	for _, h := range c.hosts {
		r.Hosts = append(r.Hosts, HostReport{
			Index:       h.index,
			App:         h.spec.App,
			Device:      h.device,
			Fidelity:    fidelities[h.fid],
			Crashes:     h.crashes,
			Rejoins:     h.rejoins,
			Rebuilds:    h.rebuilds,
			OOMKills:    h.oomTotal,
			SwapLatched: h.swapLatched,
			Policy:      c.policyFor(h).Name,
			OnCandidate: h.assigned >= 0,
		})
		if h.fid == fidTwin {
			r.TwinHosts++
		} else {
			r.FullHosts++
		}
	}
	r.RecalibrationAdvised = c.recalibAdvised
	return r
}
