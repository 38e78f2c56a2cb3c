package senpai

import (
	"testing"

	"tmo/internal/psi"
	"tmo/internal/vclock"
)

func TestAutoTuneRampsWhileCalm(t *testing.T) {
	e := newEnv("")
	e.populate(50000)
	c := New(ConfigA(), nil)
	c.AddTarget(e.g)
	c.EnableAutoTune()
	c.Tick(0)
	now := vclock.Time(0)
	// With zero pressure, the multiplier climbs every raiseAfter intervals.
	for i := 0; i < 30; i++ {
		now = now.Add(6 * vclock.Second)
		c.Tick(now)
	}
	mult := c.TuneMultiplier(e.g)
	if mult <= 2 {
		t.Fatalf("multiplier = %v after 30 calm intervals, want ramped", mult)
	}
	if mult > maxMult {
		t.Fatalf("multiplier %v above cap", mult)
	}
	// Reclaim requests scale with the multiplier (within the probe cap).
	act := c.LastAction(e.g)
	baseline := ReclaimAmount(ConfigA(), e.g.MemoryCurrent(), 0, 0)
	if act.Requested <= baseline {
		t.Fatalf("tuned request %d not above baseline %d", act.Requested, baseline)
	}
}

func TestAutoTuneCutsOnBreach(t *testing.T) {
	e := newEnv("")
	e.populate(50000)
	c := New(ConfigA(), nil)
	c.AddTarget(e.g)
	c.EnableAutoTune()
	c.Tick(0)
	now := vclock.Time(0)
	for i := 0; i < 30; i++ {
		now = now.Add(6 * vclock.Second)
		c.Tick(now)
	}
	ramped := c.TuneMultiplier(e.g)

	// Inject a pressure breach: a full second of stall in one interval.
	e.g.TaskStart(now)
	e.g.StallStart(now.Add(vclock.Second), psi.Memory)
	e.g.StallStop(now.Add(2*vclock.Second), psi.Memory)
	now = now.Add(6 * vclock.Second)
	c.Tick(now)
	cut := c.TuneMultiplier(e.g)
	if cut >= ramped {
		t.Fatalf("breach did not cut multiplier: %v -> %v", ramped, cut)
	}
	if cut != ramped*cutFactor {
		t.Fatalf("cut = %v, want %v", cut, ramped*cutFactor)
	}
}

func TestAutoTuneDisabledIsNeutral(t *testing.T) {
	e := newEnv("")
	e.populate(10000)
	c := New(ConfigA(), nil)
	c.AddTarget(e.g)
	c.Tick(0)
	now := vclock.Time(6 * vclock.Second)
	c.Tick(now)
	if c.TuneMultiplier(e.g) != 1 {
		t.Fatalf("tuner acted while disabled")
	}
	want := ReclaimAmount(ConfigA(), 10000*pageSize, 0, 0)
	act := c.LastAction(e.g)
	if diff := act.Requested - want; diff < -pageSize || diff > pageSize {
		t.Fatalf("requested %d, want ~%d (untuned)", act.Requested, want)
	}
}

func TestAutoTuneBoundedBelow(t *testing.T) {
	e := newEnv("")
	e.populate(10000)
	c := New(ConfigA(), nil)
	c.AddTarget(e.g)
	c.EnableAutoTune()
	c.Tick(0)
	e.g.TaskStart(0)
	now := vclock.Time(0)
	// Permanent heavy pressure: the multiplier must floor, not vanish.
	for i := 0; i < 20; i++ {
		e.g.StallStart(now.Add(vclock.Second), psi.Memory)
		e.g.StallStop(now.Add(3*vclock.Second), psi.Memory)
		now = now.Add(6 * vclock.Second)
		c.Tick(now)
	}
	if got := c.TuneMultiplier(e.g); got != minMult {
		t.Fatalf("multiplier = %v, want floor %v", got, minMult)
	}
}
