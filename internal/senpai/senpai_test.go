package senpai

import (
	"math"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

const (
	pageSize = 4096
	MiB      = 1 << 20
)

type env struct {
	mgr  *mm.Manager
	h    *cgroup.Hierarchy
	g    *cgroup.Group
	swap *backend.TierChain
	dev  *backend.SSDDevice
}

func newEnv(swapKind string) *env {
	spec, _ := backend.DeviceByModel("C")
	dev := backend.NewSSDDevice(spec, 31)
	var swap *backend.TierChain
	switch swapKind {
	case "zswap":
		swap = backend.NewTierChain([]backend.TierSpec{{Kind: backend.TierZswap, Codec: backend.CodecZstd,
			CapacityBytes: 1 << 30}}, nil, 0, 32)
	case "ssd":
		swap = backend.NewTierChain([]backend.TierSpec{{Kind: backend.TierSSD, CapacityBytes: 1 << 30}}, dev, 0, 0)
	}
	mgr := mm.NewManager(mm.Config{
		CapacityBytes: 512 * MiB,
		Swap:          swap,
		FS:            backend.NewFilesystem(dev),
		Policy:        mm.PolicyTMO,
	})
	h := cgroup.NewHierarchy(mgr, 0)
	return &env{mgr: mgr, h: h, g: h.NewGroup(nil, "app", cgroup.Workload, 0), swap: swap, dev: dev}
}

// populate gives the group n resident file pages.
func (e *env) populate(n int) {
	pages := e.mgr.NewPages(e.g.MM(), mm.File, n, 1)
	for _, p := range pages {
		e.mgr.Touch(0, p)
	}
}

func TestConfigAMatchesPaper(t *testing.T) {
	c := ConfigA()
	if c.Interval != 6*vclock.Second {
		t.Fatalf("interval = %v, want 6s", c.Interval)
	}
	if c.ReclaimRatio != 0.0005 {
		t.Fatalf("reclaim ratio = %v, want 0.0005", c.ReclaimRatio)
	}
	if c.MemPressureThreshold != 0.001 {
		t.Fatalf("PSI threshold = %v, want 0.1%%", c.MemPressureThreshold)
	}
	if c.MaxProbeFrac != 0.01 {
		t.Fatalf("max probe = %v, want 1%%", c.MaxProbeFrac)
	}
}

func TestSetConfigSwapsGlobalKeepsOverrides(t *testing.T) {
	e := newEnv("")
	c := New(ConfigA(), nil)
	c.AddTarget(e.g)
	override := ConfigB()
	g2 := e.h.NewGroup(nil, "tax", cgroup.DatacenterTax, 0)
	c.AddTargetWithConfig(g2, override)

	next := ConfigA()
	next.ReclaimRatio *= 3
	c.SetConfig(next)
	if got := c.Config().ReclaimRatio; got != next.ReclaimRatio {
		t.Fatalf("global config not replaced: ratio = %v, want %v", got, next.ReclaimRatio)
	}
	if got := c.config(c.targets[0]).ReclaimRatio; got != next.ReclaimRatio {
		t.Fatalf("plain target not on new config: ratio = %v", got)
	}
	if got := c.config(c.targets[1]).ReclaimRatio; got != override.ReclaimRatio {
		t.Fatalf("per-target override lost: ratio = %v, want %v", got, override.ReclaimRatio)
	}

	defer func() {
		if recover() == nil {
			t.Fatalf("SetConfig accepted a non-positive interval")
		}
	}()
	c.SetConfig(Config{})
}

func TestConfigBMoreAggressive(t *testing.T) {
	a, b := ConfigA(), ConfigB()
	if b.MemPressureThreshold <= a.MemPressureThreshold {
		t.Fatalf("config B must tolerate more memory pressure")
	}
	if b.IOPressureThreshold <= a.IOPressureThreshold {
		t.Fatalf("config B must tolerate more IO pressure")
	}
	if b.ReclaimRatio <= a.ReclaimRatio {
		t.Fatalf("config B must probe harder")
	}
}

func TestZeroPressureReclaimsFullRatio(t *testing.T) {
	e := newEnv("")
	e.populate(10000)
	c := New(ConfigA(), nil)
	c.AddTarget(e.g)

	c.Tick(0) // priming snapshot
	if c.Runs() != 0 {
		t.Fatalf("priming tick counted as a run")
	}
	before := e.g.MemoryCurrent()
	now := vclock.Time(6 * vclock.Second)
	c.Tick(now)
	act := c.LastAction(e.g)
	wantReq := int64(float64(before) * 0.0005)
	// Reclaim rounds to whole pages.
	if math.Abs(float64(act.Requested-wantReq)) > pageSize {
		t.Fatalf("requested %d, want ~%d", act.Requested, wantReq)
	}
	if act.Reclaimed < act.Requested-pageSize {
		t.Fatalf("reclaimed %d of requested %d", act.Reclaimed, act.Requested)
	}
	if c.totalRequested != act.Requested || c.totalReclaimed != act.Reclaimed {
		t.Fatalf("cumulative counters wrong")
	}
}

// One control interval is one tick span plus one probe span per target —
// the whole decision: a backoff reads off its probe's args (nothing
// requested), with no second record beside it.
func TestOneIntervalRecords(t *testing.T) {
	e := newEnv("")
	e.populate(10000)
	idle := e.h.NewGroup(nil, "idle", cgroup.Workload, 0) // empty: Senpai backs off
	rec := trace.NewRecorder(64)
	c := New(ConfigA(), nil)
	c.SetTrace(rec)
	c.AddTarget(e.g)
	c.AddTarget(idle)

	c.Tick(0)
	c.Tick(vclock.Time(6 * vclock.Second))
	recs := rec.Records()
	if len(recs) != 1+len(c.targets) {
		t.Fatalf("one interval left %d records, want 1 + %d targets: %+v", len(recs), len(c.targets), recs)
	}
	if recs[0].Cat != trace.KindSenpaiTick || recs[0].Depth != 0 {
		t.Fatalf("first record is not the tick span: %+v", recs[0])
	}
	for i, g := range []*cgroup.Group{e.g, idle} {
		p := recs[1+i]
		if p.Cat != trace.KindSenpaiReclaim || p.Name != "probe "+g.Name() || p.Depth != 1 {
			t.Fatalf("record %d is not %s's probe: %+v", 1+i, g.Name(), p)
		}
		if p.Args.Map()["requested_bytes"] != c.LastAction(g).Requested {
			t.Fatalf("probe %s args %+v disagree with action %+v", g.Name(), p.Args, c.LastAction(g))
		}
	}
	if recs[2].Args.Map()["requested_bytes"] != int64(0) {
		t.Fatalf("idle target's backoff not readable from its probe: %+v", recs[2].Args)
	}
}

func TestPressureAboveThresholdStopsReclaim(t *testing.T) {
	e := newEnv("")
	e.populate(10000)
	c := New(ConfigA(), nil)
	c.AddTarget(e.g)
	c.Tick(0)

	// Inject memory pressure well above 0.1% over the interval: 1s of
	// stall in 6s.
	e.g.TaskStart(0)
	e.g.StallStart(vclock.Time(vclock.Second), psi.Memory)
	e.g.StallStop(vclock.Time(2*vclock.Second), psi.Memory)

	before := e.g.MemoryCurrent()
	c.Tick(vclock.Time(6 * vclock.Second))
	act := c.LastAction(e.g)
	if act.Requested != 0 {
		t.Fatalf("reclaim requested despite pressure: %+v", act)
	}
	if e.g.MemoryCurrent() != before {
		t.Fatalf("memory shrank despite pressure")
	}
	if act.MemPressure < 0.1 {
		t.Fatalf("measured pressure %v, want ~0.167", act.MemPressure)
	}
}

func TestReclaimScalesLinearlyWithPressure(t *testing.T) {
	// At half the threshold, reclaim should be half the zero-pressure
	// amount (the paper's control law).
	e := newEnv("")
	e.populate(20000)
	cfg := ConfigA()
	c := New(cfg, nil)
	c.AddTarget(e.g)
	c.Tick(0)

	// Pressure = threshold/2 over a 6s interval: 3ms of stall.
	e.g.TaskStart(0)
	e.g.StallStart(vclock.Time(vclock.Second), psi.Memory)
	e.g.StallStop(vclock.Time(vclock.Second)+vclock.Time(3*vclock.Millisecond), psi.Memory)

	before := e.g.MemoryCurrent()
	c.Tick(vclock.Time(6 * vclock.Second))
	act := c.LastAction(e.g)
	want := int64(float64(before) * cfg.ReclaimRatio * 0.5)
	if math.Abs(float64(act.Requested-want)) > 2*pageSize {
		t.Fatalf("requested %d, want ~%d (half ratio)", act.Requested, want)
	}
}

func TestIOPressureGatesReclaim(t *testing.T) {
	e := newEnv("")
	e.populate(10000)
	cfg := ConfigA()
	c := New(cfg, nil)
	c.AddTarget(e.g)
	c.Tick(0)

	// IO pressure above its threshold, memory pressure zero.
	e.g.TaskStart(0)
	e.g.StallStart(vclock.Time(vclock.Second), psi.IO)
	e.g.StallStop(vclock.Time(2*vclock.Second), psi.IO)

	c.Tick(vclock.Time(6 * vclock.Second))
	if act := c.LastAction(e.g); act.Requested != 0 {
		t.Fatalf("IO pressure did not gate reclaim: %+v", act)
	}
}

func TestMaxProbeCap(t *testing.T) {
	e := newEnv("")
	e.populate(10000)
	cfg := ConfigA()
	cfg.ReclaimRatio = 0.5 // absurd ratio; the 1% cap must bind
	c := New(cfg, nil)
	c.AddTarget(e.g)
	c.Tick(0)
	before := e.g.MemoryCurrent()
	c.Tick(vclock.Time(6 * vclock.Second))
	act := c.LastAction(e.g)
	if maxStep := int64(float64(before) * cfg.MaxProbeFrac); act.Requested > maxStep {
		t.Fatalf("requested %d exceeds 1%% cap %d", act.Requested, maxStep)
	}
}

func TestWriteRegulationScalesReclaim(t *testing.T) {
	e := newEnv("ssd")
	e.populate(10000)
	cfg := ConfigA()
	cfg.WriteBudgetBytesPerSec = 1 << 20 // the paper's fleet-safe 1 MB/s
	c := New(cfg, e.swap)
	c.AddTarget(e.g)
	c.Tick(0)

	// Saturate the device write meter: 10 MB/s for a few seconds.
	now := vclock.Time(0)
	for i := 0; i < 50; i++ {
		e.dev.Write(now, 1<<20)
		now = now.Add(100 * vclock.Millisecond)
	}

	c.Tick(vclock.Time(6 * vclock.Second))
	act := c.LastAction(e.g)
	if !act.WriteLimited {
		t.Fatalf("write regulation did not engage: %+v", act)
	}
	unscaled := int64(float64(e.g.MemoryCurrent()) * cfg.ReclaimRatio)
	if act.Requested >= unscaled {
		t.Fatalf("requested %d not scaled down from %d", act.Requested, unscaled)
	}
}

func TestLimitModeDrivesMemoryMax(t *testing.T) {
	e := newEnv("")
	e.populate(10000)
	cfg := ConfigA()
	cfg.LimitMode = true
	c := New(cfg, nil)
	c.AddTarget(e.g)
	c.Tick(0)
	c.Tick(vclock.Time(6 * vclock.Second))
	if e.g.MM().Limit() == 0 {
		t.Fatalf("limit mode did not set memory.max")
	}
	if e.g.MM().Limit() >= 10000*pageSize {
		t.Fatalf("limit not below original usage")
	}

	// Under pressure, the limit must be relieved upward.
	e.g.TaskStart(vclock.Time(6 * vclock.Second))
	e.g.StallStart(vclock.Time(7*vclock.Second), psi.Memory)
	e.g.StallStop(vclock.Time(8*vclock.Second), psi.Memory)
	lim := e.g.MM().Limit()
	c.Tick(vclock.Time(12 * vclock.Second))
	if e.g.MM().Limit() <= lim {
		t.Fatalf("limit not relieved under pressure: %d -> %d", lim, e.g.MM().Limit())
	}
}

func TestTickGatesOnInterval(t *testing.T) {
	e := newEnv("")
	e.populate(1000)
	c := New(ConfigA(), nil)
	c.AddTarget(e.g)
	c.Tick(0)
	for ms := 100; ms < 6000; ms += 100 {
		c.Tick(vclock.Time(ms) * vclock.Time(vclock.Millisecond))
	}
	if c.Runs() != 0 {
		t.Fatalf("controller acted before its interval elapsed")
	}
	c.Tick(vclock.Time(6 * vclock.Second))
	if c.Runs() != 1 {
		t.Fatalf("controller did not act at interval: runs=%d", c.Runs())
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("zero interval accepted")
		}
	}()
	New(Config{}, nil)
}

func TestTargetsAccessor(t *testing.T) {
	e := newEnv("")
	c := New(ConfigA(), nil)
	c.AddTarget(e.g)
	if len(c.targets) != 1 || c.targets[0].g != e.g {
		t.Fatalf("targets accessor broken")
	}
}

func TestPerTargetConfigOverride(t *testing.T) {
	// Two identical containers under one controller: the relaxed-SLA
	// override must reclaim more aggressively than the global config.
	e := newEnv("")
	e.populate(10000)
	other := e.h.NewGroup(nil, "tax", cgroup.DatacenterTax, 0)
	pages := e.mgr.NewPages(other.MM(), mm.File, 10000, 1)
	for _, p := range pages {
		e.mgr.Touch(0, p)
	}

	c := New(ConfigA(), nil)
	c.AddTarget(e.g)
	relaxed := ConfigA()
	relaxed.ReclaimRatio *= 5
	c.AddTargetWithConfig(other, relaxed)

	c.Tick(0)
	c.Tick(vclock.Time(6 * vclock.Second))
	strict := c.LastAction(e.g)
	loose := c.LastAction(other)
	if loose.Requested <= strict.Requested {
		t.Fatalf("override not applied: strict=%d loose=%d", strict.Requested, loose.Requested)
	}
	want := 5 * strict.Requested
	if diff := loose.Requested - want; diff < -2*pageSize || diff > 2*pageSize {
		t.Fatalf("override ratio wrong: %d, want ~%d", loose.Requested, want)
	}
}

// The first window starts at the controller's first tick: stall time a
// container carried before then is not pressure Senpai caused. A container
// added after that tick has no baseline yet, so its first window counts
// from zero.
func TestFirstWindowExcludesEarlierStalls(t *testing.T) {
	e := newEnv("")
	e.populate(10000)
	late := e.h.NewGroup(nil, "late", cgroup.Workload, 0)
	start := vclock.Time(30 * vclock.Second)
	for _, g := range []*cgroup.Group{e.g, late} {
		g.TaskStart(0)
		g.StallStart(0, psi.Memory)
	}
	for _, g := range []*cgroup.Group{e.g, late} {
		g.StallStop(start, psi.Memory)
	}
	c := New(ConfigA(), nil)
	c.AddTarget(e.g)
	c.Tick(start)
	c.AddTarget(late)
	c.Tick(start.Add(6 * vclock.Second))
	if act := c.LastAction(e.g); act.MemPressure != 0 || act.Requested == 0 {
		t.Fatalf("first window read earlier stalls: %+v", act)
	}
	if p := c.LastAction(late).MemPressure; p != 1 {
		t.Fatalf("late target's first window = %v, want 1 from a zero baseline", p)
	}
}
