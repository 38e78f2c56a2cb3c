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
// written_bytes counts IO only; injected wear shows in WrittenBytes and
// EnduranceUsed, not here.
func (d *SSDDevice) EnableTelemetry(reg *telemetry.Registry) {
	dev := telemetry.Label{Key: "device", Value: d.Spec.Model}
	reg.CounterFunc("backend.ssd.reads", func() int64 { return d.reads }, dev)
	reg.CounterFunc("backend.ssd.writes", func() int64 { return d.writes }, dev)
	reg.CounterFunc("backend.ssd.written_bytes", func() int64 { return d.writtenBytes }, dev)
	reg.Histogram("backend.ssd.read_latency_us", &d.readHist, dev)
	reg.Histogram("backend.ssd.write_latency_us", &d.writeHist, dev)
	reg.Histogram("backend.ssd.batch_pages", &d.batchHist, dev)
}

// EnableTelemetry registers the swap partition's async writeback-queue
// series: current depth and high water, cumulative drained submissions
// (one per batch, however many pages it carries), and the backpressure
// stalls reclaim served because the queue was full.
func (s *SSDSwap) EnableTelemetry(reg *telemetry.Registry) {
	q := s.wb
	reg.CounterFunc("backend.wb.drained", func() int64 { return q.drained })
	reg.CounterFunc("backend.wb.backpressure_stalls", func() int64 { return q.stalls })
	reg.CounterFunc("backend.wb.backpressure_us", func() int64 { return int64(q.stallTime) })
	reg.GaugeFunc("backend.wb.queue_depth", func() float64 { return float64(q.depth()) })
	reg.GaugeFunc("backend.wb.queue_high_water", func() float64 { return float64(q.highWater) })
}

// EnableTelemetry registers the chain's per-tier series, labelled by tier
// position and substrate (e.g. tier="0-lz4") so stacked compressed pools
// stay distinguishable. The SSD tier additionally wires its writeback-queue
// series. A one-tier chain has nothing to label apart, so it keeps the
// plain series of its substrate instead: backend.zswap.* for a pool
// (counting one reject per store batch that ends in ErrFull), or
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
		st := &t.stats
		reg.CounterFunc("backend.zswap.stores", func() int64 { return st.TotalWrites })
		reg.CounterFunc("backend.zswap.loads", func() int64 { return st.TotalReads })
		reg.CounterFunc("backend.zswap.rejects", func() int64 { return c.rejects })
		reg.Histogram("backend.zswap.compress_ratio", &t.ratioHist)
		reg.GaugeFunc("backend.zswap.pool_bytes", func() float64 { return float64(st.StoredBytes) })
		reg.GaugeFunc("backend.zswap.logical_bytes", func() float64 { return float64(st.LogicalBytes) })
		return
	}
	for i := range c.tiers {
		t := &c.tiers[i]
		lbl := telemetry.Label{Key: "tier", Value: fmt.Sprintf("%d-%s", i, t.spec.Label())}
		st := &t.stats
		reg.CounterFunc("backend.tier.stores", func() int64 { return st.TotalWrites }, lbl)
		reg.CounterFunc("backend.tier.demotions", func() int64 { return t.demotions }, lbl)
		reg.CounterFunc("backend.tier.refaults", func() int64 { return t.promotions }, lbl)
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
	reg.CounterFunc("backend.chain.promotions", c.Promotions)
	reg.CounterFunc("backend.chain.admit_skips", func() int64 { return c.admitSkips })
	reg.CounterFunc("backend.chain.demote_backpressure", func() int64 { return c.demoteStall })
}

// SetTrace attaches the host's decision recorder; each watermark demotion
// round becomes one instant.
func (c *TierChain) SetTrace(r *trace.Recorder) { c.trace = r }
