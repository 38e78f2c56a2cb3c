package mm

import (
	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// counters bundles the manager's registry instruments, resolved once at
// EnableTelemetry so the hot paths pay a nil check and an atomic add, never a
// registry lookup.
type counters struct {
	pagesScanned    *telemetry.Counter
	swapIns         *telemetry.Counter
	swapOuts        *telemetry.Counter
	refaults        *telemetry.Counter
	activations     *telemetry.Counter
	coldFileReads   *telemetry.Counter
	fileEvictions   *telemetry.Counter
	fileWritebacks  *telemetry.Counter
	directReclaims  *telemetry.Counter
	oomEvents       *telemetry.Counter
	swapRejects     *telemetry.Counter
	readaheadIns    *telemetry.Counter
	readaheadSkips  *telemetry.Counter
	zeroFills       *telemetry.Counter
	coalescedFaults *telemetry.Counter
	faultLatency    *telemetry.Histogram
}

// EnableTelemetry registers the memory manager's instruments with reg and
// starts publishing into them. The counter names mirror the kernel's
// memory.stat / vmstat vocabulary.
func (m *Manager) EnableTelemetry(reg *telemetry.Registry) {
	m.tel = &counters{
		pagesScanned:    reg.Counter("mm.pages_scanned"),
		swapIns:         reg.Counter("mm.swap_ins"),
		swapOuts:        reg.Counter("mm.swap_outs"),
		refaults:        reg.Counter("mm.refaults"),
		activations:     reg.Counter("mm.activations"),
		coldFileReads:   reg.Counter("mm.cold_file_reads"),
		fileEvictions:   reg.Counter("mm.file_evictions"),
		fileWritebacks:  reg.Counter("mm.file_writebacks"),
		directReclaims:  reg.Counter("mm.direct_reclaims"),
		oomEvents:       reg.Counter("mm.oom_events"),
		swapRejects:     reg.Counter("mm.swap_rejects"),
		readaheadIns:    reg.Counter("mm.readahead_ins"),
		readaheadSkips:  reg.Counter("mm.readahead_skips"),
		zeroFills:       reg.Counter("mm.zero_fills"),
		coalescedFaults: reg.Counter("mm.fault_coalesced"),
		faultLatency:    reg.Histogram("mm.fault_latency_us"),
	}
}

// SetTrace attaches the host's decision recorder; the manager records the
// swap-full latch into it so controller decisions can be correlated with
// their kernel-level consequences. Refaults are counted and timed by the
// registry (mm.refaults, mm.fault_latency_us), not recorded one by one.
func (m *Manager) SetTrace(r *trace.Recorder) { m.trace = r }

// noteFault publishes one fault's classification and latency.
func (m *Manager) noteFault(res TouchResult) {
	if m.tel != nil {
		m.tel.faultLatency.Record(float64(res.TotalStall()))
		switch {
		case res.Coalesced:
			m.tel.coalescedFaults.Inc()
		case res.SwapIn:
			m.tel.swapIns.Inc()
		case res.Refault:
			m.tel.refaults.Inc()
		case res.ColdRead:
			m.tel.coldFileReads.Inc()
		case res.ZeroFill:
			m.tel.zeroFills.Inc()
		}
	}
}

// latchSwapFull publishes one refused swap store and latches anon scanning
// off until swap space frees up; the latch edge is recorded as an instant.
func (m *Manager) latchSwapFull(now vclock.Time, g *Group) {
	if m.tel != nil {
		m.tel.swapRejects.Inc()
	}
	if !m.swapExhausted && m.trace != nil {
		m.trace.Instant(now, trace.KindMMSwapFull, g.name)
	}
	m.swapExhausted = true
}
