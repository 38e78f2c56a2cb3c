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
// best surviving candidate by weighted savings when the final stage begins.
// The classic one-candidate-vs-baseline rollout is the K=1 special case.
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
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

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
	// TraceCapacity bounds the controller's ring decision log; default
	// 4096. Long K-candidate races with churn can overflow the default
	// and silently evict early events — size it to the run.
	TraceCapacity int
	// Obs attaches the observability plane (TSDB scraping, SLO burn
	// monitors, flight recorders); nil runs without one.
	Obs *ObsConfig
	// Twin enables the two-fidelity fleet layout for 100k+-host rollouts;
	// nil runs every host at full fidelity.
	Twin *TwinConfig
	// PriorOutcomes seeds the race with the verdicts of a previous campaign
	// (Result.Candidates): a candidate whose policy name matches a prior
	// outcome starts excluded from every device class that dropped it, and a
	// candidate dropped everywhere starts out of the race. Lets chained
	// campaigns avoid re-burning canary hosts on known-bad cohorts.
	PriorOutcomes []CandidateOutcome
}

// TwinConfig is the two-fidelity fleet layout: per device class the first
// FullHead and last FullTail hosts (in index order) run full page-level
// simulations, and every host between them runs a calibrated analytical
// twin (internal/twin) advancing in O(1) per window. Hosts are enrolled in
// stage cohorts by index order, so head samples land in the canary prefix
// and tail samples in the never-treated control suffix — every stage cohort
// and the control cohort keep full-fidelity anchors.
type TwinConfig struct {
	// Coeffs is the calibration artifact (twin.Calibrate or
	// twin.ReadJSON); required, and it must carry a surface for every
	// (device class, mode) a twin host could be asked to run.
	Coeffs *twin.CoefficientSet
	// FullHead and FullTail are the per-device-class full-fidelity sample
	// counts; defaults 4 and 4.
	FullHead, FullTail int
}

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
		if st.Frac <= 0 || st.Frac > 1 {
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
	if cfg.TraceCapacity <= 0 {
		cfg.TraceCapacity = 4096
	}
	for _, cr := range cfg.Crashes {
		if cr.Host < 0 || cr.Host >= len(cfg.Hosts) {
			panic(fmt.Sprintf("rollout: crash host %d out of range", cr.Host))
		}
	}
	if cfg.Twin != nil {
		t := *cfg.Twin
		if t.Coeffs == nil || len(t.Coeffs.Surfaces) == 0 {
			panic("rollout: Twin.Coeffs required — run a calibration (twin.Calibrate) first")
		}
		if t.FullHead <= 0 {
			t.FullHead = 4
		}
		if t.FullTail <= 0 {
			t.FullTail = 4
		}
		cfg.Twin = &t
		// Fail at construction, not mid-rollout: every (device class, mode,
		// backend signature) a twin host could be pushed must resolve to a
		// fitted surface. Backend-specific surfaces are preferred; a
		// signature with no dedicated surface falls back to the plain
		// (device, mode) fit, so only a missing base surface is fatal.
		pols := append([]Policy{cfg.Baseline}, cfg.Candidates...)
		seen := map[string]bool{}
		for i, f := range fidelityLayout(cfg) {
			if f != fleet.FidelityTwin {
				continue
			}
			d := cfg.Hosts[i].DeviceClass()
			for _, p := range pols {
				sig := fleet.TierSignature(p.Tiers)
				k := twin.KeyBackend(d, p.Mode, sig)
				if seen[k] {
					continue
				}
				seen[k] = true
				if _, ok := t.Coeffs.LookupBackend(d, p.Mode, sig); !ok {
					panic(fmt.Sprintf("rollout: twin calibration has no surface for %s — recalibrate covering this class and mode", k))
				}
			}
		}
	}
	return cfg
}

// fidelityLayout assigns each host index its fidelity under the twin
// layout: per device class (indices in index order) the first FullHead and
// last FullTail hosts stay full, the span between runs as twins. Classes
// too small to thin out stay entirely full-fidelity.
func fidelityLayout(cfg Config) []string {
	out := make([]string, len(cfg.Hosts))
	for i := range out {
		out[i] = fleet.FidelityFull
	}
	if cfg.Twin == nil {
		return out
	}
	byDev, devs := fleet.DeviceCohorts(cfg.Hosts)
	for _, d := range devs {
		idxs := byDev[d]
		head, tail := cfg.Twin.FullHead, cfg.Twin.FullTail
		if head+tail >= len(idxs) {
			continue
		}
		for _, i := range idxs[head : len(idxs)-tail] {
			out[i] = fleet.FidelityTwin
		}
	}
	return out
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
	weight float64
	// fidelity is the host's layout assignment (fleet.FidelityFull or
	// fleet.FidelityTwin); fixed for the host's lifetime.
	fidelity string

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

	// assigned is the candidate index whose policy the host is entitled
	// to; -1 means baseline (control cohort).
	assigned int

	// Last window's outputs.
	winPressure float64
	winRPS      float64
	winOOMs     int64
	resident    float64
	swapStored  int64
	faultP99    float64

	// Accumulated over the host's life.
	oomTotal    int64
	swapLatched bool

	// Pre-rollout reference recorded at the end of the first warm-up; kept
	// across crashes and rebuilds so a rejoined host is judged against its
	// class norm.
	baselineSet      bool
	warmRPSSum       float64
	baselineRPS      float64
	baselineResident float64
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
	// tripped/detail record the (last) guardrail that dropped a cohort.
	tripped string
	detail  string
	// excluded device classes: cohorts this candidate was dropped from.
	excluded map[string]bool
	// acc accumulates the current stage.
	acc candAccum
	// Lifetime savings accumulation, for promotion scoring.
	lifeSavingsSum float64
	lifeWindows    int
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

// meanSavings is the candidate's lifetime mean weighted savings — the
// promotion score.
func (cs *candState) meanSavings() float64 {
	if cs.lifeWindows == 0 {
		return 0
	}
	return cs.lifeSavingsSum / float64(cs.lifeWindows)
}

// devAccum accumulates one (candidate, device-class) cohort over a stage.
// Only windows with at least one contributing host count toward means.
type devAccum struct {
	windows     int
	pressureSum float64
	rpsRatioSum float64
	ooms        int64
	latched     int
	hosts       int
}

// cohort folds the accumulator into the stats the guardrails judge.
func (a *devAccum) cohort(device string) CohortStats {
	s := CohortStats{Device: device, Hosts: a.hosts, OOMKills: a.ooms, SwapLatched: a.latched, RPSRatio: 1}
	if a.windows > 0 {
		s.MemPressure = a.pressureSum / float64(a.windows)
		s.RPSRatio = a.rpsRatioSum / float64(a.windows)
	}
	return s
}

// candAccum accumulates one candidate's stage aggregates: the candidate-wide
// cohort plus one devAccum per device class.
type candAccum struct {
	windows     int
	pressureSum float64
	rpsRatioSum float64
	savingsSum  float64
	ooms        int64
	latched     int
	hosts       int
	dev         map[string]*devAccum
}

// cohort folds the candidate-wide accumulator.
func (a *candAccum) cohort() CohortStats {
	s := CohortStats{Hosts: a.hosts, OOMKills: a.ooms, SwapLatched: a.latched, RPSRatio: 1}
	if a.windows > 0 {
		s.MemPressure = a.pressureSum / float64(a.windows)
		s.RPSRatio = a.rpsRatioSum / float64(a.windows)
	}
	return s
}

// savings is the accumulated stage-mean weighted resident savings of the
// candidate's cohort relative to control.
func (a *candAccum) savings() float64 {
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

	reg *telemetry.Registry
	log *trace.Log
	rec *trace.Recorder

	now        vclock.Time
	window     int
	state      State
	stageIdx   int
	treated    int
	settleLeft int
	tripped    string
	// winner is the promoted candidate index; -1 until promotion.
	winner int

	events  []trace.Event
	reports []StageReport

	// Observability plane; nil when Config.Obs is unset.
	obs     *obsState
	flights []tsdb.FlightBundle

	// recalibAdvised counts twin-drift burn alerts: each one is standing
	// advice to re-probe the calibration surface before trusting further
	// twin cohort verdicts.
	recalibAdvised int64

	telAdvance, telRollback, telPush, telRebuild, telDrop, telPromote, telCrash, telRejoin, telRecalib *telemetry.Counter
}

// New builds the fleet (every host starts on the baseline policy) and arms
// the crash schedules.
func New(cfg Config) *Controller {
	cfg = cfg.normalize()
	c := &Controller{
		cfg:    cfg,
		winner: -1,
		reg:    telemetry.NewRegistry(),
		log:    trace.NewLog(cfg.TraceCapacity),
		rec:    trace.NewRecorder(1 << 14),
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
	c.telRecalib = c.reg.Counter("rollout.recalib_advised")
	c.reg.GaugeFunc("rollout.stage", func() float64 { return float64(c.stageIdx) })
	c.reg.GaugeFunc("rollout.treated_hosts", func() float64 { return float64(c.treated) })
	c.reg.GaugeFunc("rollout.candidates_alive", func() float64 { return float64(c.aliveCount()) })

	_, c.fleetDevices = fleet.DeviceCohorts(cfg.Hosts)
	for i, pol := range cfg.Candidates {
		c.cands = append(c.cands, &candState{idx: i, pol: pol, excluded: map[string]bool{}})
	}
	c.applyPriorOutcomes()
	layout := fidelityLayout(cfg)
	for i, s := range cfg.Hosts {
		w := s.Weight
		if w <= 0 {
			w = 1
		}
		h := &host{
			index:     i,
			spec:      s,
			device:    s.DeviceClass(),
			weight:    w,
			fidelity:  layout[i],
			assigned:  -1,
			latchFrac: cfg.guardrailsFor(s.DeviceClass()).SwapUtilizationLatch,
		}
		c.buildHost(h)
		c.hosts = append(c.hosts, h)
	}

	c.eng = chaos.NewEngine(chaos.Host{
		Seed:      cfg.Seed ^ 0x5011011, // distinct stream from any host's own seed
		Telemetry: c.reg,
		Trace:     c.log,
		Recorder:  c.rec,
	})
	for _, cr := range cfg.Crashes {
		h := c.hosts[cr.Host]
		c.eng.Add(fmt.Sprintf("host-%d", cr.Host),
			chaos.FaultFunc("host-crash", func(_ vclock.Time, level float64) {
				h.wantDown = level > 0
			}), cr.Schedule)
	}
	return c
}

// Telemetry exposes the control plane's metrics registry (stage gauges,
// rollback/push/drop/promotion/lifecycle counters, chaos injections).
func (c *Controller) Telemetry() *telemetry.Registry { return c.reg }

// Recorder exposes the span recorder carrying rollout instants for
// Chrome-trace export.
func (c *Controller) Recorder() *trace.Recorder { return c.rec }

// policyFor resolves the policy the host is entitled to right now.
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

// applyPriorOutcomes seeds the race with a previous campaign's verdicts:
// matching candidates (by policy name) start excluded from every device
// class that dropped them before, and a candidate whose prior exclusions
// cover the whole current fleet starts out of the race entirely.
func (c *Controller) applyPriorOutcomes() {
	for _, prior := range c.cfg.PriorOutcomes {
		for _, cand := range c.cands {
			if cand.pol.Name != prior.Policy || len(prior.ExcludedDevices) == 0 {
				continue
			}
			for _, d := range prior.ExcludedDevices {
				cand.excluded[d] = true
			}
			if prior.Tripped != "" {
				cand.tripped = prior.Tripped
				cand.detail = prior.Detail
			}
			c.record(trace.KindRolloutDrop, cand.pol.Name,
				"prior campaign exclusions carried in: %s", strings.Join(prior.ExcludedDevices, ","))
		}
	}
	for _, cand := range c.cands {
		if cand.dropped || len(cand.excluded) == 0 {
			continue
		}
		covered := 0
		for _, d := range c.fleetDevices {
			if cand.excluded[d] {
				covered++
			}
		}
		if covered == len(c.fleetDevices) {
			cand.dropped = true
			c.telDrop.Inc()
			c.record(trace.KindRolloutDrop, cand.pol.Name,
				"candidate starts dropped: prior exclusions cover every device class")
		}
	}
}

// buildHost assembles (or reassembles, after a crash or a mode-changing
// push) the host's simulation under the policy its cohort is currently
// entitled to. The policy supplies the mode, Senpai config, and chain
// layout — overriding the spec's own (pushed policy wins over Spec.Senpai).
// Incarnations perturb the seed so a rebooted host does not replay its
// previous life — twins included: a rebuilt twin gets a fresh splitmix64
// stream from the same perturbed seed a full host would.
func (c *Controller) buildHost(h *host) {
	pol := c.policyFor(h)
	spec := h.spec
	spec.Mode = pol.Mode
	cfg := pol.Config
	spec.Senpai = &cfg
	if len(pol.Tiers) > 0 {
		spec.Tiers = pol.Tiers
	}
	if pol.Placement != nil {
		spec.Placement = pol.Placement
	}
	spec.Seed = h.spec.Seed + uint64(h.incarnation)*0x9e3779b9
	if h.fidelity == fleet.FidelityTwin {
		// Surface presence was validated at construction.
		sur, _ := c.cfg.Twin.Coeffs.LookupBackend(h.device, pol.Mode, fleet.TierSignature(pol.Tiers))
		h.sim = twin.NewHost(spec, sur, spec.Seed)
	} else {
		h.sim = fleet.NewSimHost(spec)
	}
	h.runMode = pol.Mode
	h.swapCap = h.sim.SwapCapacityBytes()
	h.upWindows = 0
	if c.obs != nil {
		// A fresh incarnation starts a fresh black box.
		if fr := c.obs.fr[h.index]; fr != nil {
			fr.Reset()
		}
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
	h.sim.SetPlacementConfig(pol.Placement)
	return false
}

// hostName labels a host in the event log.
func (c *Controller) hostName(h *host) string {
	return fmt.Sprintf("host-%d/%s", h.index, h.spec.App)
}

// record appends to the deterministic rollout event log and mirrors the
// event into the decision log and span timeline.
func (c *Controller) record(kind trace.Kind, subject, format string, args ...any) {
	e := trace.Event{Time: c.now, Kind: kind, Subject: subject, Detail: fmt.Sprintf(format, args...)}
	c.events = append(c.events, e)
	c.log.Emit(c.now, kind, subject, "%s", e.Detail)
	c.rec.Instant(c.now, kind, subject, nil)
}

// Run executes the whole plan — warm-up, stages, and the settle tail after
// completion or rollback — and returns the scorecard.
func (c *Controller) Run() Result {
	for {
		c.lifecycle()
		c.advance()
		c.now = c.now.Add(c.cfg.Window)
		c.window++
		if c.barrier() {
			return c.result()
		}
	}
}

// entitlement resolves which candidate (or baseline, -1) a host is entitled
// to right now — the policy a rejoining host boots with.
func (c *Controller) entitlement(h *host) int {
	if c.state == StateRolledBack || h.index >= c.treated {
		return -1
	}
	if c.winner >= 0 {
		if c.cands[c.winner].excluded[h.device] {
			return -1
		}
		return c.winner
	}
	if k := h.assigned; k >= 0 && !c.cands[k].dropped && !c.cands[k].excluded[h.device] {
		return k
	}
	return -1
}

// lifecycle evaluates the crash schedules at the current barrier and applies
// pending transitions: a crashing host's simulation is discarded; a
// rejoining host boots a fresh incarnation under the policy its cohort is
// entitled to right now.
func (c *Controller) lifecycle() {
	c.eng.Tick(c.now)
	for _, h := range c.hosts {
		switch {
		case h.wantDown && !h.down:
			h.down = true
			h.crashes++
			h.sim = nil
			c.telCrash.Inc()
			c.record(trace.KindHostCrash, c.hostName(h), "incarnation %d down", h.incarnation)
			c.dumpFlight(h, "crash")
		case !h.wantDown && h.down:
			h.down = false
			h.incarnation++
			h.rejoins++
			h.assigned = c.entitlement(h)
			c.buildHost(h)
			c.telRejoin.Inc()
			c.record(trace.KindHostRejoin, c.hostName(h), "incarnation %d up, policy=%s",
				h.incarnation, c.policyFor(h).Name)
		}
	}
}

// advance runs every live host through the next window on the worker pool.
// Each worker writes only its own host's fields, and aggregation happens
// later in index order, so concurrency cannot perturb results.
func (c *Controller) advance() {
	var up []*host
	for _, h := range c.hosts {
		if !h.down {
			up = append(up, h)
		}
	}
	workers := c.cfg.Workers
	if workers > len(up) {
		workers = len(up)
	}
	if workers < 1 {
		return
	}
	idx := make(chan *host)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for h := range idx {
				c.advanceHost(h)
			}
		}()
	}
	for _, h := range up {
		idx <- h
	}
	close(idx)
	wg.Wait()
}

// advanceHost runs one host for a window and samples its vitals. Both
// fidelities surface the same shape (fleet.Vitals), so everything from here
// up — aggregation, guardrails, monitors, promotion — is fidelity-blind.
func (c *Controller) advanceHost(h *host) {
	v := h.sim.Advance(c.cfg.Window)
	h.winPressure = v.Pressure
	h.winRPS = v.RPS
	h.winOOMs = v.OOMKills
	h.oomTotal += v.OOMKills
	h.resident = v.ResidentBytes
	h.swapStored = v.SwapStoredBytes
	h.faultP99 = v.FaultP99Us
	if h.swapCap > 0 && h.latchFrac > 0 &&
		float64(v.SwapStoredBytes) >= h.latchFrac*float64(h.swapCap) {
		h.swapLatched = true
	}

	h.upWindows++
	if !h.baselineSet {
		// Skip the first window (boot transient), average the rest of the
		// warm-up into the host's throughput norm.
		if h.upWindows >= 2 {
			h.warmRPSSum += h.winRPS
		}
		if h.upWindows >= c.cfg.WarmWindows {
			h.baselineRPS = h.warmRPSSum / float64(h.upWindows-1)
			h.baselineResident = h.resident
			h.baselineSet = true
		}
	}
}

// candWindow is one candidate's aggregates over the window just completed.
type candWindow struct {
	hosts    int
	pressure float64
	rpsRatio float64
	savings  float64
	ooms     int64
	latched  int
	dev      map[string]*devWindow
}

// devWindow is one (candidate, device-class) cohort's window aggregates.
type devWindow struct {
	hosts    int
	pressure float64
	rpsRatio float64
	ooms     int64
	latched  int
}

// rawSums are weighted sample sums pending normalization.
type rawSums struct {
	w, press, rps, res float64
	hosts              int
}

// windowStats aggregates the window just completed, per candidate and per
// device-class cohort: weighted mean pressure, baseline-normalized
// throughput against the control cohort (device-matched where control hosts
// of the class exist), OOM kills, swap latches, and weighted resident
// savings vs control. Aggregation walks hosts in index order and devices in
// sorted order, so results are deterministic.
func (c *Controller) windowStats() []candWindow {
	out := make([]candWindow, len(c.cands))
	raw := make([]map[string]*rawSums, len(c.cands))
	for k := range out {
		out[k].rpsRatio = 1
		out[k].dev = map[string]*devWindow{}
		raw[k] = map[string]*rawSums{}
	}
	var ctrl rawSums
	ctrlDev := map[string]*rawSums{}

	for _, h := range c.hosts {
		if h.down {
			continue
		}
		k := h.assigned
		if k >= 0 {
			cw := &out[k]
			cw.ooms += h.winOOMs
			if h.swapLatched {
				cw.latched++
			}
			dw := cw.dev[h.device]
			if dw == nil {
				dw = &devWindow{}
				cw.dev[h.device] = dw
			}
			dw.ooms += h.winOOMs
			if h.swapLatched {
				dw.latched++
			}
		}
		if !h.eligible(c.cfg.WarmWindows) {
			continue
		}
		rpsNorm, resNorm := 1.0, 1.0
		if h.baselineRPS > 0 {
			rpsNorm = h.winRPS / h.baselineRPS
		}
		if h.baselineResident > 0 {
			resNorm = h.resident / h.baselineResident
		}
		if k < 0 {
			ctrl.w += h.weight
			ctrl.press += h.weight * h.winPressure
			ctrl.rps += h.weight * rpsNorm
			ctrl.res += h.weight * resNorm
			ctrl.hosts++
			cd := ctrlDev[h.device]
			if cd == nil {
				cd = &rawSums{}
				ctrlDev[h.device] = cd
			}
			cd.w += h.weight
			cd.rps += h.weight * rpsNorm
			cd.res += h.weight * resNorm
			cd.hosts++
			continue
		}
		rs := raw[k][h.device]
		if rs == nil {
			rs = &rawSums{}
			raw[k][h.device] = rs
		}
		rs.w += h.weight
		rs.press += h.weight * h.winPressure
		rs.rps += h.weight * rpsNorm
		rs.res += h.weight * resNorm
		rs.hosts++
	}

	// Fleet-wide control means; 1.0 (the host's own baseline) when the
	// control cohort is empty.
	cRPS, cRes := 1.0, 1.0
	if ctrl.w > 0 {
		cRPS = ctrl.rps / ctrl.w
		cRes = ctrl.res / ctrl.w
	}
	for k := range out {
		cw := &out[k]
		var tW, tP, tRPS, tRes float64
		for _, d := range c.fleetDevices {
			rs := raw[k][d]
			if rs == nil || rs.hosts == 0 {
				continue
			}
			tW += rs.w
			tP += rs.press
			tRPS += rs.rps
			tRes += rs.res
			dw := cw.dev[d]
			dw.hosts = rs.hosts
			dw.pressure = rs.press / rs.w
			// Device-matched control where available.
			dcRPS := cRPS
			if cd := ctrlDev[d]; cd != nil && cd.w > 0 {
				dcRPS = cd.rps / cd.w
			}
			dw.rpsRatio = rs.rps / rs.w
			if dcRPS > 0 {
				dw.rpsRatio /= dcRPS
			}
		}
		for _, d := range c.fleetDevices {
			if rs := raw[k][d]; rs != nil {
				cw.hosts += rs.hosts
			}
		}
		if tW == 0 {
			continue
		}
		cw.pressure = tP / tW
		cw.rpsRatio = tRPS / tW
		if cRPS > 0 {
			cw.rpsRatio /= cRPS
		}
		if cRes > 0 {
			cw.savings = 1 - (tRes/tW)/cRes
		}
	}
	return out
}

// barrier is the single-threaded decision point after every window. It
// returns true when the rollout (including its settle tail) is over.
func (c *Controller) barrier() bool {
	var cws []candWindow
	if c.state == StateStaging {
		cws = c.windowStats()
	}
	// The observability plane sees the window before the verdict does, so
	// a burn alert always precedes the guardrail trip it anticipates.
	c.observe(cws)
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
		acc := &cand.acc
		acc.ooms += cw.ooms
		acc.latched = cw.latched
		acc.hosts = cw.hosts
		if cw.hosts > 0 {
			acc.windows++
			acc.pressureSum += cw.pressure
			acc.rpsRatioSum += cw.rpsRatio
			acc.savingsSum += cw.savings
			cand.lifeWindows++
			cand.lifeSavingsSum += cw.savings
		}
		for _, d := range c.fleetDevices {
			dw := cw.dev[d]
			if dw == nil {
				continue
			}
			da := acc.dev[d]
			if da == nil {
				da = &devAccum{}
				acc.dev[d] = da
			}
			da.ooms += dw.ooms
			da.latched = dw.latched
			da.hosts = dw.hosts
			if dw.hosts > 0 {
				da.windows++
				da.pressureSum += dw.pressure
				da.rpsRatioSum += dw.rpsRatio
			}
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
			da := cand.acc.dev[d]
			if da == nil {
				continue
			}
			g := c.cfg.guardrailsFor(d)
			if name, detail := g.Check(da.cohort(d)); name != "" {
				c.dropDevice(cand, d, name, detail)
			}
		}
		if !cand.dropped && len(cand.excluded) == len(c.fleetDevices) {
			c.dropCandidate(cand)
		}
	}
}

// dropDevice rolls one (candidate, device-class) cohort back to baseline —
// only where the guardrail says it must — and bars the candidate from that
// class for the rest of the rollout.
func (c *Controller) dropDevice(cand *candState, device, guardrail, detail string) {
	cand.excluded[device] = true
	cand.tripped = guardrail
	cand.detail = detail
	c.reg.Counter("rollout.guardrail_trips",
		telemetry.Label{Key: "guardrail", Value: guardrail},
		telemetry.Label{Key: "candidate", Value: cand.pol.Name},
		telemetry.Label{Key: "device", Value: device}).Inc()
	c.record(trace.KindRolloutTrip, cand.pol.Name+"@"+device, "%s: %s", guardrail, detail)
	var dropped []*host
	for _, h := range c.hosts {
		if h.assigned == cand.idx && h.device == device {
			dropped = append(dropped, h)
		}
	}
	restored := 0
	for _, h := range dropped {
		h.assigned = -1
		if !h.down {
			c.pushPolicy(h)
			restored++
		}
	}
	c.record(trace.KindRolloutDrop, cand.pol.Name+"@"+device,
		"device cohort dropped, baseline restored on %d hosts", restored)
	// Every host of the tripped cohort ships its post-mortem (crashed
	// hosts dumped theirs when they went down).
	for _, h := range dropped {
		if !h.down {
			c.dumpFlight(h, "guardrail-"+guardrail)
		}
	}
}

// dropCandidate takes a candidate out of the race everywhere.
func (c *Controller) dropCandidate(cand *candState) {
	cand.dropped = true
	c.telDrop.Inc()
	restored := 0
	for _, h := range c.hosts {
		if h.assigned != cand.idx {
			continue
		}
		h.assigned = -1
		if !h.down {
			c.pushPolicy(h)
			restored++
		}
	}
	c.record(trace.KindRolloutDrop, cand.pol.Name,
		"candidate dropped (%s), baseline restored on %d hosts", cand.tripped, restored)
}

// bakeDone reports whether every live candidate with hosts in the race has
// held its guardrails for the stage's bake. Candidates without assigned
// hosts this stage (e.g. a canary smaller than the field) do not gate.
func (c *Controller) bakeDone() bool {
	bake := c.cfg.Plan[c.stageIdx].Bake
	assigned := make([]int, len(c.cands))
	for _, h := range c.hosts {
		if h.assigned >= 0 {
			assigned[h.assigned]++
		}
	}
	for k, cand := range c.cands {
		if cand.dropped || assigned[k] == 0 {
			continue
		}
		if cand.acc.windows < bake {
			return false
		}
	}
	return true
}

// beginStage enrolls the stage's cohort, partitions it among the surviving
// candidates (or the promoted winner at the final stage), and pushes each
// newly entitled policy — rebuilding hosts whose mode changes.
func (c *Controller) beginStage(i int) {
	c.stageIdx = i
	c.state = StateStaging
	for _, cand := range c.cands {
		cand.acc = candAccum{dev: map[string]*devAccum{}}
	}
	st := c.cfg.Plan[i]
	want := int(math.Ceil(st.Frac * float64(len(c.hosts))))
	if want > len(c.hosts) {
		want = len(c.hosts)
	}
	if want < 1 {
		want = 1
	}
	c.treated = want
	if i == len(c.cfg.Plan)-1 && c.winner < 0 {
		c.promote()
	}
	var alive []int
	for k, cand := range c.cands {
		if !cand.dropped {
			alive = append(alive, k)
		}
	}
	pushed, rebuilt := 0, 0
	counts := make([]int, len(c.cands))
	for _, h := range c.hosts[:want] {
		k := -1
		switch {
		case c.winner >= 0:
			if !c.cands[c.winner].excluded[h.device] {
				k = c.winner
			}
		default:
			for j := 0; j < len(alive); j++ {
				cand := c.cands[alive[(h.index+j)%len(alive)]]
				if !cand.excluded[h.device] {
					k = cand.idx
					break
				}
			}
		}
		if k >= 0 {
			counts[k]++
		}
		if k == h.assigned {
			continue
		}
		h.assigned = k
		if !h.down {
			if c.pushPolicy(h) {
				rebuilt++
			}
			pushed++
		}
	}
	var cohorts strings.Builder
	for k, cand := range c.cands {
		if cand.dropped {
			continue
		}
		fmt.Fprintf(&cohorts, " %s=%d", cand.pol.Name, counts[k])
	}
	c.record(trace.KindRolloutStage, st.Name,
		"begin: %d/%d hosts treated;%s (%d pushed, %d rebuilt)",
		want, len(c.hosts), cohorts.String(), pushed, rebuilt)
	if pushed > 0 {
		c.record(trace.KindRolloutPush, st.Name, "policies pushed to %d hosts", pushed)
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
		if best < 0 || cand.meanSavings() > c.cands[best].meanSavings() {
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
		fmt.Fprintf(&scores, " %s=%.2f%%", cand.pol.Name, 100*cand.meanSavings())
	}
	c.record(trace.KindRolloutPromote, c.cands[best].pol.Name,
		"promoted on weighted savings over %d windows:%s", c.cands[best].lifeWindows, scores.String())
}

// candReports snapshots every candidate's stage accumulators into reports,
// in candidate order with device cohorts sorted.
func (c *Controller) candReports(terminal string) []CandidateStageReport {
	assigned := make([]int, len(c.cands))
	for _, h := range c.hosts {
		if h.assigned >= 0 {
			assigned[h.assigned]++
		}
	}
	out := make([]CandidateStageReport, 0, len(c.cands))
	for k, cand := range c.cands {
		r := CandidateStageReport{
			Policy:         cand.pol.Name,
			Windows:        cand.acc.windows,
			Stats:          cand.acc.cohort(),
			SavingsFrac:    cand.acc.savings(),
			Tripped:        cand.tripped,
			Detail:         cand.detail,
			DroppedDevices: cand.excludedList(),
		}
		for _, d := range c.fleetDevices {
			if da := cand.acc.dev[d]; da != nil {
				r.Cohorts = append(r.Cohorts, da.cohort(d))
			}
		}
		switch {
		case cand.dropped:
			r.Verdict = "dropped"
		case assigned[k] == 0 && c.winner >= 0 && c.winner != k:
			r.Verdict = "idle"
		case assigned[k] == 0:
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
		stats := cand.acc.cohort()
		c.record(trace.KindRolloutStage, st.Name,
			"%s held over %d windows: psi=%.4f rps=%.3f oom=%d latched=%d savings=%.1f%%",
			cand.pol.Name, cand.acc.windows, stats.MemPressure, stats.RPSRatio,
			stats.OOMKills, stats.SwapLatched, 100*cand.acc.savings())
	}
	if last {
		// Converge the treated prefix on the winner: hosts still carrying a
		// losing candidate (single-stage plans promote only now) move over.
		if c.winner >= 0 {
			for _, h := range c.hosts[:c.treated] {
				k := -1
				if !c.cands[c.winner].excluded[h.device] {
					k = c.winner
				}
				if k == h.assigned {
					continue
				}
				h.assigned = k
				if !h.down {
					c.pushPolicy(h)
				}
			}
		}
		c.state = StateCompleted
		c.settleLeft = c.cfg.SettleWindows
		on := 0
		for _, h := range c.hosts {
			if h.assigned == c.winner && c.winner >= 0 {
				on++
			}
		}
		name := ""
		if c.winner >= 0 {
			name = c.cands[c.winner].pol.Name
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
	// The last dropped candidate's guardrail names the rollback.
	for _, cand := range c.cands {
		if cand.tripped != "" {
			c.tripped = cand.tripped
		}
	}
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
	canary := int(math.Ceil(c.cfg.Plan[0].Frac * float64(len(c.hosts))))
	if canary < 1 {
		canary = 1
	}
	if canary > len(c.hosts) {
		canary = len(c.hosts)
	}
	r := Result{
		State:            c.state,
		TrippedGuardrail: c.tripped,
		Stages:           c.reports,
		Events:           c.events,
		Flights:          c.flights,
		CanaryHosts:      canary,
		Window:           c.cfg.Window,
		Duration:         vclock.Duration(c.now),
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
			MeanSavingsFrac: cand.meanSavings(),
			Windows:         cand.lifeWindows,
			Promoted:        c.state == StateCompleted && cand.idx == c.winner,
		})
	}
	for _, h := range c.hosts {
		r.Hosts = append(r.Hosts, HostReport{
			Index:       h.index,
			App:         h.spec.App,
			Device:      h.device,
			Fidelity:    h.fidelity,
			Crashes:     h.crashes,
			Rejoins:     h.rejoins,
			Rebuilds:    h.rebuilds,
			OOMKills:    h.oomTotal,
			SwapLatched: h.swapLatched,
			Policy:      c.policyFor(h).Name,
			OnCandidate: h.assigned >= 0,
		})
		if h.fidelity == fleet.FidelityTwin {
			r.TwinHosts++
		} else {
			r.FullHosts++
		}
	}
	r.RecalibrationAdvised = c.recalibAdvised
	return r
}
