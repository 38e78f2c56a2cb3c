package backend

import (
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// This file models a byte-addressable CXL far-memory node (§2.5's non-DDR
// bus technologies) as a *placement* tier rather than a swap backend: pages
// demoted to the node stay mapped, so an access is a slow load — no page
// fault, no kernel entry — and the swap tiers become the third rung below
// it. The placement loop in internal/place moves pages between local DRAM
// and this node; internal/mm charges the link latency on every touch of a
// far page.

// CXLNodeSpec describes one CXL-attached memory expander.
type CXLNodeSpec struct {
	// Kind is a catalog label ("cxl-node").
	Kind string
	// CapacityBytes bounds the node; required.
	CapacityBytes int64
	// AccessLatency is the extra latency of touching a far page versus
	// local DRAM — the link round trip as seen by a page-granular access
	// pattern. CXL adds ~3-10x DRAM latency per line; a page touch stands
	// for a request's worth of line accesses to that page, so integrated
	// over them the premium lands on the order of a few microseconds.
	AccessLatency vclock.Duration
	// MigrateBase is the fixed cost of one page migration over the link
	// (setup plus the tail of the copy).
	MigrateBase vclock.Duration
	// LinkBWBytesPerSec is the link's sustained transfer bandwidth, the
	// per-byte term of a migration. A x8 CXL 2.0 link sustains ~16 GB/s.
	LinkBWBytesPerSec float64
}

// SpecCXLNode is the default catalog expander: DRAM behind a x8 CXL link.
var SpecCXLNode = CXLNodeSpec{
	Kind:              "cxl-node",
	AccessLatency:     3 * vclock.Microsecond,
	MigrateBase:       2 * vclock.Microsecond,
	LinkBWBytesPerSec: 16e9,
}

// CXLNode is one byte-addressable far-memory node. It is deliberately NOT a
// SwapBackend: pages placed on it remain mapped and are accessed in place,
// so the node only tracks occupancy and prices accesses and migrations.
// All latencies are deterministic — the access path runs on every touch of
// a far page, so it must be cheap and must not consume randomness.
type CXLNode struct {
	spec CXLNodeSpec
	used int64

	// degrade scales access latency and migration cost and divides link
	// bandwidth; the chaos engine drives it (link contention, a downtrained
	// link). 1 is nominal.
	degrade float64

	// stallFrom/stallUntil is the most recent injected link stall window
	// (a hot-remove glitch, a retrain). Accesses and migrations issued
	// inside the window wait it out; the placement loop aborts promotions
	// whose copy overlapped it.
	stallFrom, stallUntil vclock.Time

	// Cumulative traffic counters.
	demotedPages, promotedPages int64

	telUsed *telemetry.Gauge
}

// NewCXLNode returns a node following spec.
func NewCXLNode(spec CXLNodeSpec) *CXLNode {
	if spec.CapacityBytes <= 0 {
		panic("backend: CXLNode requires positive capacity")
	}
	if spec.AccessLatency <= 0 {
		spec.AccessLatency = SpecCXLNode.AccessLatency
	}
	if spec.MigrateBase <= 0 {
		spec.MigrateBase = SpecCXLNode.MigrateBase
	}
	if spec.LinkBWBytesPerSec <= 0 {
		spec.LinkBWBytesPerSec = SpecCXLNode.LinkBWBytesPerSec
	}
	return &CXLNode{spec: spec, degrade: 1}
}

// Spec returns the node description.
func (n *CXLNode) Spec() CXLNodeSpec { return n.spec }

// CapacityBytes returns the node's size.
func (n *CXLNode) CapacityBytes() int64 { return n.spec.CapacityBytes }

// UsedBytes returns the bytes currently placed on the node.
func (n *CXLNode) UsedBytes() int64 { return n.used }

// FreeBytes returns the node's remaining room.
func (n *CXLNode) FreeBytes() int64 { return n.spec.CapacityBytes - n.used }

// TryReserve claims room for bytes, returning false when the node is full.
func (n *CXLNode) TryReserve(bytes int64) bool {
	if n.used+bytes > n.spec.CapacityBytes {
		return false
	}
	n.used += bytes
	n.demotedPages++
	if n.telUsed != nil {
		n.telUsed.Set(float64(n.used))
	}
	return true
}

// Release returns bytes to the node (a promotion back to DRAM, or a freed
// page).
func (n *CXLNode) Release(bytes int64) {
	n.used -= bytes
	if n.used < 0 {
		panic("backend: CXLNode released more than reserved")
	}
	if n.telUsed != nil {
		n.telUsed.Set(float64(n.used))
	}
}

// NotePromote counts one page promoted off the node (occupancy is released
// separately).
func (n *CXLNode) NotePromote() { n.promotedPages++ }

// DemotedPages returns the cumulative pages placed on the node.
func (n *CXLNode) DemotedPages() int64 { return n.demotedPages }

// PromotedPages returns the cumulative pages promoted off the node.
func (n *CXLNode) PromotedPages() int64 { return n.promotedPages }

// AccessDelay prices one touch of a far page at now: the link latency under
// the current degradation, plus the remainder of any injected stall window.
func (n *CXLNode) AccessDelay(now vclock.Time) vclock.Duration {
	d := vclock.Duration(float64(n.spec.AccessLatency) * n.degrade)
	if d < 1 {
		d = 1
	}
	if now < n.stallUntil {
		d += n.stallUntil.Sub(now)
	}
	return d
}

// MigrateCost prices moving bytes over the link starting at now: the fixed
// setup plus the bandwidth term, both scaled by degradation, plus the
// remainder of any stall window the transfer would start inside.
func (n *CXLNode) MigrateCost(now vclock.Time, bytes int64) vclock.Duration {
	us := (float64(n.spec.MigrateBase) + float64(bytes)/n.spec.LinkBWBytesPerSec*1e6) * n.degrade
	d := vclock.Duration(us)
	if d < 1 {
		d = 1
	}
	if now < n.stallUntil {
		d += n.stallUntil.Sub(now)
	}
	return d
}

// SetLinkDegradation scales the link's latency (and divides its bandwidth)
// by factor >= 1; the chaos engine's cxl-degrade fault drives this.
func (n *CXLNode) SetLinkDegradation(factor float64) {
	if factor < 1 {
		factor = 1
	}
	n.degrade = factor
}

// LinkDegradation returns the current degradation factor.
func (n *CXLNode) LinkDegradation() float64 { return n.degrade }

// InjectLinkStall freezes the link for d starting at now — a retrain or
// hot-remove glitch. Accesses during the window wait it out; in-flight
// promotion copies overlapping it are aborted by the placement loop.
func (n *CXLNode) InjectLinkStall(now vclock.Time, d vclock.Duration) {
	until := now.Add(d)
	if until > n.stallUntil {
		n.stallFrom, n.stallUntil = now, until
	}
}

// StalledDuring reports whether the most recent stall window overlaps
// (from, to] — the placement loop's abort test for a promotion copy that
// was in flight over that span.
func (n *CXLNode) StalledDuring(from, to vclock.Time) bool {
	return n.stallFrom < to && n.stallUntil > from
}

// EnableTelemetry registers the node's occupancy gauge with reg.
func (n *CXLNode) EnableTelemetry(reg *telemetry.Registry) {
	reg.GaugeFunc("cxl.capacity_bytes", func() float64 { return float64(n.spec.CapacityBytes) })
	n.telUsed = reg.Gauge("cxl.used_bytes")
	n.telUsed.Set(float64(n.used))
}
