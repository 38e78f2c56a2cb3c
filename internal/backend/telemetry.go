package backend

import (
	"fmt"

	"tmo/internal/telemetry"
	"tmo/internal/trace"
)

// EnableTelemetry registers the device's traffic counters and per-device
// latency histograms with reg, labelled by catalog model so a fleet of
// hosts with mixed SSD generations stays distinguishable (Fig. 5's
// per-generation latency spread is read off exactly these series).
func (d *SSDDevice) EnableTelemetry(reg *telemetry.Registry) {
	dev := telemetry.Label{Key: "device", Value: d.Spec.Model}
	d.telReads = reg.Counter("backend.ssd.reads", dev)
	d.telWrites = reg.Counter("backend.ssd.writes", dev)
	d.telWrittenBytes = reg.Counter("backend.ssd.written_bytes", dev)
	d.telReadLat = reg.Histogram("backend.ssd.read_latency_us", dev)
	d.telWriteLat = reg.Histogram("backend.ssd.write_latency_us", dev)
	d.telBatchPages = reg.Histogram("backend.ssd.batch_pages", dev)
}

// EnableTelemetry registers the swap partition's async writeback-queue
// instruments: current depth, cumulative drained submissions, and the
// backpressure stalls reclaim served because the queue was full.
func (s *SSDSwap) EnableTelemetry(reg *telemetry.Registry) {
	s.wb.telDrained = reg.Counter("backend.wb.drained")
	s.wb.telStalls = reg.Counter("backend.wb.backpressure_stalls")
	s.wb.telStallUs = reg.Counter("backend.wb.backpressure_us")
	reg.GaugeFunc("backend.wb.queue_depth", func() float64 { return float64(s.wb.depth()) })
	reg.GaugeFunc("backend.wb.queue_high_water", func() float64 { return float64(s.wb.highWater) })
}

// EnableTelemetry registers the chain's per-tier instruments, labelled by
// tier position and substrate (e.g. tier="0-lz4") so stacked compressed
// pools stay distinguishable. The SSD tier additionally wires its
// writeback-queue instruments. A one-tier chain has nothing to label apart,
// so it keeps the plain series of its substrate instead: backend.zswap.*
// for a pool (counting one reject per store batch that ends in ErrFull), or
// backend.wb.* for SSD swap.
func (c *TierChain) EnableTelemetry(reg *telemetry.Registry) {
	if len(c.tiers) == 1 {
		t := &c.tiers[0]
		if t.ssd != nil {
			t.ssd.EnableTelemetry(reg)
		}
		if t.zs == nil {
			return
		}
		t.telStores = reg.Counter("backend.zswap.stores")
		t.telLoads = reg.Counter("backend.zswap.loads")
		c.telRejects = reg.Counter("backend.zswap.rejects")
		t.telRatio = reg.Histogram("backend.zswap.compress_ratio")
		reg.GaugeFunc("backend.zswap.pool_bytes", func() float64 { return float64(t.stats.StoredBytes) })
		reg.GaugeFunc("backend.zswap.logical_bytes", func() float64 { return float64(t.stats.LogicalBytes) })
		return
	}
	for i := range c.tiers {
		t := &c.tiers[i]
		lbl := telemetry.Label{Key: "tier", Value: fmt.Sprintf("%d-%s", i, t.spec.Label())}
		t.telStores = reg.Counter("backend.tier.stores", lbl)
		t.telDemotions = reg.Counter("backend.tier.demotions", lbl)
		t.telRefaults = reg.Counter("backend.tier.refaults", lbl)
		st := &t.stats
		reg.GaugeFunc("backend.tier.pages", func() float64 { return float64(st.StoredPages) }, lbl)
		reg.GaugeFunc("backend.tier.stored_bytes", func() float64 { return float64(st.StoredBytes) }, lbl)
		reg.GaugeFunc("backend.tier.ratio", func() float64 {
			if st.StoredBytes == 0 {
				return 0
			}
			return float64(st.LogicalBytes) / float64(st.StoredBytes)
		}, lbl)
		if t.ssd != nil {
			t.ssd.EnableTelemetry(reg)
		}
	}
	c.telPromotions = reg.Counter("backend.chain.promotions")
	c.telAdmitSkips = reg.Counter("backend.chain.admit_skips")
	c.telDemoteStall = reg.Counter("backend.chain.demote_backpressure")
}

// SetTrace attaches the host's decision recorder; each watermark demotion
// round becomes one instant.
func (c *TierChain) SetTrace(r *trace.Recorder) { c.trace = r }
