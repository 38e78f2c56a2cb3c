// Package place implements transparent page placement over a
// byte-addressable CXL far-memory node — the tiering counterpart of TMO's
// offload loop, following TPP's design: reclaim demotes cold pages to the
// node ahead of swap (internal/mm), and this controller runs the reverse
// path on the virtual clock — deterministic access-bit sampling over far
// pages within a per-window budget, promotion of hot pages back to local
// DRAM via Nomad-style non-exclusive copies (the page stays mapped far
// while the copy is in flight, so a promotion aborted by churn, link
// trouble, or local-memory pressure costs nothing), and watermark-driven
// proactive demotion that keeps local allocation headroom while each
// container's memory pressure stays under a placement target.
package place

import (
	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// The placement loop's parameters; like Senpai's Config A, one production
// setting for every host.
const (
	// interval between placement actions. Placement runs much faster than
	// Senpai's 6s: promotion latency is what bounds the cost of a wrong
	// demotion.
	interval vclock.Duration = 1 * vclock.Second
	// sampleBudget is how many far pages each container's access-bit scan
	// examines per interval.
	sampleBudget int = 256
	// promoteThreshold is the touch count since a page's last scan that
	// marks it hot (TPP promotes on the second reference).
	promoteThreshold uint8 = 2
	// maxInflight bounds concurrent promotion copies.
	maxInflight int = 8
	// demoteWatermarkFrac is the host free-memory fraction below which the
	// proactive demoter engages.
	demoteWatermarkFrac float64 = 0.08
	// demoteStepFrac is the fraction of a container's local anon memory
	// demoted per interval at full urgency.
	demoteStepFrac float64 = 0.01
	// pressureTarget is the per-container windowed memory some-pressure
	// above which proactive demotion backs off — the placement-pressure
	// balance: demotion must not push a container into visible stalling.
	pressureTarget float64 = 0.002
)

// migration is one in-flight non-exclusive promotion copy.
type migration struct {
	p     mm.PageID
	g     *cgroup.Group
	start vclock.Time
	done  vclock.Time
}

// Stats is the controller's cumulative outcome counters.
type Stats struct {
	// Promotions counts committed promotions to local DRAM.
	Promotions int64
	// Aborts counts promotions dropped at zero cost, by cause: the page
	// left the far tier mid-copy (churn), the link stalled over the copy
	// window, or local memory had no headroom at commit time.
	AbortsChurn, AbortsStall, AbortsPressure int64
	// AbortStall is the host-visible stall charged by aborted promotions.
	// Non-exclusive copies make this zero by construction; it exists so
	// the scorecard can pin that property.
	AbortStall vclock.Duration
	// DemotedBytes is what the watermark demoter moved (reclaim-context
	// demotions are counted by mm).
	DemotedBytes int64
}

// Aborts returns the total aborted promotions.
func (s Stats) Aborts() int64 { return s.AbortsChurn + s.AbortsStall + s.AbortsPressure }

// target is one container under placement and its memory-pressure
// baseline.
type target struct {
	g   *cgroup.Group
	mem psi.Baseline
}

// Controller drives placement for a set of containers. Like Senpai it runs
// every simulation tick and self-gates on its own interval.
type Controller struct {
	// interleave, when positive, selects the static-interleave baseline
	// (see New).
	interleave float64
	mgr        *mm.Manager
	node       *backend.CXLNode

	targets []*target
	cadence vclock.Cadence

	// inflight holds promotion copies in submission order — a slice, not a
	// map, so completion order is deterministic.
	inflight  []migration
	sampleBuf []mm.PageID

	stats    Stats
	hotRatio float64 // of the last interval that sampled any far page

	trace *trace.Recorder
}

// New returns a controller moving pages between mgr's local tier and node.
// A positive interleave replaces the whole loop with the static-interleave
// baseline: that fraction of new anonymous pages is placed far at
// allocation and nothing ever migrates. The scorecard's strawman, not a
// production setting.
func New(mgr *mm.Manager, node *backend.CXLNode, interleave float64) *Controller {
	mgr.SetFarInterleave(interleave)
	return &Controller{interleave: interleave, mgr: mgr, node: node}
}

// Stats returns the cumulative outcome counters.
func (c *Controller) Stats() Stats { return c.stats }

// SetTrace attaches the host's decision recorder: one instant per promotion
// outcome and per watermark demotion.
func (c *Controller) SetTrace(r *trace.Recorder) { c.trace = r }

// AddTarget registers a container for placement.
func (c *Controller) AddTarget(g *cgroup.Group) { c.targets = append(c.targets, &target{g: g}) }

// EnableTelemetry registers the place.* series with reg.
func (c *Controller) EnableTelemetry(reg *telemetry.Registry) {
	reason := func(r string) telemetry.Label { return telemetry.Label{Key: "reason", Value: r} }
	reg.CounterFunc("place.promotions", func() int64 { return c.stats.Promotions })
	reg.CounterFunc("place.promo_aborts", func() int64 { return c.stats.AbortsChurn }, reason("churn"))
	reg.CounterFunc("place.promo_aborts", func() int64 { return c.stats.AbortsStall }, reason("link-stall"))
	reg.CounterFunc("place.promo_aborts", func() int64 { return c.stats.AbortsPressure }, reason("pressure"))
	reg.CounterFunc("place.promo_abort_stall_us", func() int64 { return int64(c.stats.AbortStall) })
	reg.GaugeFunc("place.sampled_hot_ratio", func() float64 { return c.hotRatio })
	reg.GaugeFunc("place.far_resident_bytes", func() float64 { return float64(c.node.UsedBytes()) })
	reg.CounterFunc("place.demotions", c.mgr.FarDemotions)
	reg.GaugeFunc("place.inflight", func() float64 { return float64(len(c.inflight)) })
}

// Tick drives the controller; call it every simulation tick.
func (c *Controller) Tick(now vclock.Time) {
	elapsed, ok := c.cadence.Due(now, interval)
	if !ok {
		return
	}
	if elapsed == 0 { // the prime: record baselines, do not act
		for _, t := range c.targets {
			t.pressure(now, 0)
		}
		return
	}

	c.completePromotions(now)

	if c.interleave > 0 {
		// Static-interleave baseline: placement is fixed at allocation;
		// no sampling, no migration.
		return
	}

	// Access-bit sampling and promotion submission, per container in
	// registration order (deterministic).
	var sampledAll, hotAll int64
	for _, t := range c.targets {
		g := t.g
		cands, sampled := c.mgr.SampleFar(g.MM(), sampleBudget, promoteThreshold, c.sampleBuf[:0])
		c.sampleBuf = cands[:0]
		sampledAll += int64(sampled)
		hotAll += int64(len(cands))
		for _, p := range cands {
			if len(c.inflight) >= maxInflight {
				break
			}
			if !c.mgr.BeginPromotion(p) {
				continue
			}
			c.inflight = append(c.inflight, migration{
				p:     p,
				g:     g,
				start: now,
				done:  now.Add(c.node.MigrateCost(now, mm.PageSize)),
			})
		}
	}
	if sampledAll > 0 {
		c.hotRatio = float64(hotAll) / float64(sampledAll)
	}

	// Watermark demotion: keep local allocation headroom by proactively
	// moving cold pages far — but only from containers whose windowed
	// memory pressure is under the placement target, so demotion never
	// pushes a stalling container harder. Headroom is judged against the
	// tighter of two walls: host free memory, and each container's own
	// memory.max. The second matters because promotions commit only when
	// the group has room under its limit (migration must never trigger
	// reclaim); a group pinned at memory.max would otherwise abort every
	// promotion, so the demoter keeps a watermark of limit headroom open
	// and the loop exchanges cold-for-hot through it.
	host := c.mgr.HostStat()
	freeFrac := float64(host.FreeBytes) / float64(host.CapacityBytes)
	hostUrgency := 0.0
	if freeFrac < demoteWatermarkFrac {
		hostUrgency = (demoteWatermarkFrac - freeFrac) / demoteWatermarkFrac
	}
	for _, t := range c.targets {
		g, memP := t.g, t.pressure(now, elapsed)
		urgency := hostUrgency
		if lim := g.MM().Limit(); lim > 0 {
			headFrac := float64(lim-g.MemoryCurrent()) / float64(lim)
			if headFrac < demoteWatermarkFrac {
				if u := (demoteWatermarkFrac - headFrac) / demoteWatermarkFrac; u > urgency {
					urgency = u
				}
			}
		}
		if urgency <= 0 || memP >= pressureTarget {
			continue
		}
		want := int64(float64(g.MM().ResidentBytesOf(mm.Anon)) * demoteStepFrac * urgency)
		if want <= 0 {
			continue
		}
		moved := c.mgr.DemoteCold(now, g.MM(), want)
		c.stats.DemotedBytes += moved
		if moved > 0 && c.trace != nil {
			c.trace.Instant(now, trace.KindPlaceDemote, g.Name(),
				"bytes", moved, "free_frac", freeFrac, "mem_pressure", memP)
		}
	}
}

// pressure reads the container's memory some-pressure over the interval
// since the previous read.
func (t *target) pressure(now vclock.Time, interval vclock.Duration) float64 {
	tr := t.g.PSI()
	tr.Sync(now)
	return t.mem.Read(tr.Total(psi.Memory, psi.Some), interval)
}

// completePromotions resolves in-flight copies whose transfer is due. A
// copy commits only if it is still in flight — the page has not been freed
// under churn, which ends the copy even if the page has since refaulted and
// gone far again — the link never stalled over the copy window, and local
// DRAM has headroom at commit time; otherwise the promotion aborts, and
// because the copy was non-exclusive the abort charges nothing to anyone —
// no stall, no accounting change.
func (c *Controller) completePromotions(now vclock.Time) {
	kept := c.inflight[:0]
	for _, mg := range c.inflight {
		if mg.done > now {
			kept = append(kept, mg)
			continue
		}
		switch {
		case !c.mgr.Migrating(mg.p):
			c.mgr.AbortPromotion(mg.p)
			c.stats.AbortsChurn++
			c.note(now, mg, "abort-churn")
		case c.node.StalledDuring(mg.start, mg.done):
			c.mgr.AbortPromotion(mg.p)
			c.stats.AbortsStall++
			c.note(now, mg, "abort-link-stall")
		case !c.mgr.PromoteFromFar(now, mg.p):
			c.stats.AbortsPressure++
			c.note(now, mg, "abort-pressure")
		default:
			c.stats.Promotions++
			c.note(now, mg, "promoted")
		}
	}
	c.inflight = kept
}

// note records one promotion outcome in the decision stream.
func (c *Controller) note(now vclock.Time, mg migration, outcome string) {
	if c.trace != nil {
		c.trace.Instant(now, trace.KindPlacePromote, mg.g.Name(),
			"outcome", outcome, "inflight_us", int64(now.Sub(mg.start)))
	}
}
