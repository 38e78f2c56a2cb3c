package mm

import (
	"tmo/internal/metrics"
	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// EnableTelemetry registers the memory manager's series with reg. The
// counter names mirror the kernel's memory.stat / vmstat vocabulary; each
// reads a count the manager or its groups already keep, and the fault
// latency histogram is a field of the manager's own.
func (m *Manager) EnableTelemetry(reg *telemetry.Registry) {
	for _, c := range []struct {
		name string
		fn   func() int64
	}{
		{"mm.pages_scanned", func() int64 { return m.Stat().PagesScanned }},
		{"mm.swap_ins", func() int64 { return m.Stat().SwapIns }},
		{"mm.swap_outs", func() int64 { return m.Stat().SwapOuts }},
		{"mm.refaults", func() int64 { return m.Stat().Refaults }},
		{"mm.cold_file_reads", func() int64 { return m.Stat().ColdFileReads }},
		{"mm.file_evictions", func() int64 { return m.Stat().FileEvictions }},
		{"mm.file_writebacks", func() int64 { return m.Stat().FileWritebacks }},
		{"mm.direct_reclaims", func() int64 { return m.Stat().DirectReclaims }},
		{"mm.oom_events", func() int64 { return m.oomEvents }},
		{"mm.readahead_ins", func() int64 { return m.readaheadIn }},
		{"mm.activations", func() int64 { return m.activations }},
		{"mm.swap_rejects", func() int64 { return m.swapRejects }},
		{"mm.readahead_skips", func() int64 { return m.readaheadSkips }},
		{"mm.zero_fills", func() int64 { return m.zeroFills }},
		{"mm.fault_coalesced", func() int64 { return m.faultCoalesced }},
	} {
		reg.CounterFunc(c.name, c.fn)
	}
	reg.Histogram("mm.fault_latency_us", &m.faultLatency)
}

// FaultLatency returns the histogram of every fault's stall in µs.
func (m *Manager) FaultLatency() *metrics.Histogram { return &m.faultLatency }

// Stat returns the host-wide event counts: the sum of every group's
// GroupStat. Groups are never removed, so the sum is cumulative.
func (m *Manager) Stat() GroupStat {
	var s GroupStat
	for _, g := range m.groups {
		st := &g.stat
		s.Refaults += st.Refaults
		s.ColdFileReads += st.ColdFileReads
		s.SwapIns += st.SwapIns
		s.SwapOuts += st.SwapOuts
		s.FileEvictions += st.FileEvictions
		s.FileWritebacks += st.FileWritebacks
		s.PagesScanned += st.PagesScanned
		s.Demotions += st.Demotions
		s.Promotions += st.Promotions
		s.DirectReclaims += st.DirectReclaims
		s.OOMEvents += st.OOMEvents
	}
	return s
}

// FaultCoalesced returns how many swap-in faults waited on a batched load
// already in flight instead of issuing their own.
func (m *Manager) FaultCoalesced() int64 { return m.faultCoalesced }

// SetTrace attaches the host's decision recorder; the manager records the
// swap-full latch into it so controller decisions can be correlated with
// their kernel-level consequences. Refaults are counted and timed, not
// recorded one by one.
func (m *Manager) SetTrace(r *trace.Recorder) { m.trace = r }

// noteFault counts one fault's classification where no group stat does,
// and records its latency.
func (m *Manager) noteFault(res TouchResult) {
	m.faultLatency.Record(int64(res.TotalStall()))
	switch {
	case res.Coalesced:
		m.faultCoalesced++
	case res.ZeroFill:
		m.zeroFills++
	}
}

// latchSwapFull counts one refused swap store and latches anon scanning
// off until swap space frees up; the latch edge is recorded as an instant.
func (m *Manager) latchSwapFull(now vclock.Time, g *Group) {
	m.swapRejects++
	if !m.swapExhausted && m.trace != nil {
		m.trace.Instant(now, trace.KindMMSwapFull, g.name)
	}
	m.swapExhausted = true
}
