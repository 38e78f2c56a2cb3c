// Package core is the top-level TMO assembly: it wires a simulated server
// (memory manager, cgroup hierarchy, PSI), an offload backend, and the
// Senpai controller into one system, the way Fig. 6 of the paper draws it.
//
// A System is created in one of seven modes: the deployment stages of §5.1
// (offloading disabled, file-only reclaim without swap, a zswap compressed
// pool, SSD swap) plus the tiers §2.5/§5.2 anticipate (a multi-tier
// compressed chain, NVM, and a CXL far-memory node). Every swap mode's
// backend is one backend.TierChain; the mode only picks its default tier
// layout. Workloads are added from the catalog and the system is advanced
// in virtual time; metrics snapshots expose the quantities the paper's
// evaluation reports.
package core

import (
	"fmt"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/chaos"
	"tmo/internal/mm"
	"tmo/internal/place"
	"tmo/internal/psi"
	"tmo/internal/senpai"
	"tmo/internal/sim"
	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// Mode selects the offload backend configuration.
type Mode int

// The system modes, in the order the paper deployed them.
const (
	// ModeOff disables proactive offloading entirely (the baseline tiers
	// in Figs. 11-13).
	ModeOff Mode = iota
	// ModeFileOnly runs Senpai without swap: only file cache is
	// reclaimed, the first production deployment stage (§5.1).
	ModeFileOnly
	// ModeZswap offloads anonymous memory to a compressed in-DRAM pool: one
	// zstd tier of a quarter of DRAM.
	ModeZswap
	// ModeSSDSwap offloads anonymous memory to a swap partition on the
	// host SSD: one SSD tier of 4x DRAM.
	ModeSSDSwap
	// ModeTiered runs a multi-tier software-defined compressed-memory
	// chain (§5.2's future-work hierarchy generalized per arXiv
	// 2404.13886): by default a zstd pool over SSD swap, or any layout
	// given via Options.Tiers — e.g. an lz4 fast tier over a zstd dense
	// tier over SSD — with watermark demotion down-chain and promotion on
	// refault.
	ModeTiered
	// ModeNVM offloads to byte-addressable persistent memory (§2.5's
	// "upcoming NVM devices"): one NVM tier of 4x DRAM.
	ModeNVM
	// ModeCXL places memory on a byte-addressable CXL far-memory node
	// (§2.5's emerging non-DDR bus technologies): cold pages stay *mapped*
	// at link latency instead of faulting, a TPP-style placement loop
	// promotes hot far pages back to local DRAM, and a one-tier SSD swap
	// chain remains underneath as the third rung.
	ModeCXL
)

// ParseMode resolves a mode name ("zswap", "tiered", …) to its Mode — the
// inverse of String. The vocabulary is shared by every command's -mode flag
// and by rollout policy parsing.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off":
		return ModeOff, nil
	case "file-only":
		return ModeFileOnly, nil
	case "zswap":
		return ModeZswap, nil
	case "ssd", "ssd-swap":
		return ModeSSDSwap, nil
	case "tiered":
		return ModeTiered, nil
	case "nvm":
		return ModeNVM, nil
	case "cxl":
		return ModeCXL, nil
	}
	return 0, fmt.Errorf("unknown mode %q (off, file-only, zswap, ssd, tiered, nvm, cxl)", s)
}

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeFileOnly:
		return "file-only"
	case ModeZswap:
		return "zswap"
	case ModeSSDSwap:
		return "ssd-swap"
	case ModeTiered:
		return "tiered"
	case ModeNVM:
		return "nvm"
	case ModeCXL:
		return "cxl"
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// Options configures a System. Zero-valued fields get production-like
// defaults.
type Options struct {
	// Mode selects the offload backend; default ModeOff.
	Mode Mode
	// CapacityBytes is host DRAM; required.
	CapacityBytes int64
	// DeviceModel is the host SSD's catalog letter; default "C".
	DeviceModel string
	// TickLen is the simulation tick; default 100ms.
	TickLen vclock.Duration
	// Policy is the kernel reclaim algorithm; default PolicyTMO.
	Policy mm.ReclaimPolicy
	// Senpai overrides the controller configuration; nil selects the
	// production ConfigA. Ignored in ModeOff. This sets the config the
	// system *boots* with; a control plane may later replace it live via
	// Senpai.SetConfig (a rollout-pushed policy wins over this field — see
	// rollout.Policy).
	Senpai *senpai.Config
	// DisableSenpai builds the offload backend without the controller, for
	// experiments that attach a different controller (e.g. the g-swap
	// baseline) to the same plumbing.
	DisableSenpai bool
	// Tiers lays out the swap chain explicitly (fastest first; see
	// backend.TierSpec), overriding the mode's default layout: one zstd
	// tier of DefaultPoolFrac x DRAM (ModeZswap), one SSD tier of
	// DefaultSwapFactor x DRAM (ModeSSDSwap, ModeCXL), one NVM tier of the
	// same size (ModeNVM), or DefaultChainSpecs over both (ModeTiered). An
	// unsized SSD or NVM tier gets DefaultSwapFactor x DRAM. Ignored by the
	// modes without swap (ModeOff, ModeFileOnly).
	Tiers []backend.TierSpec
	// CXLBytes sizes the byte-addressable far-memory node in ModeCXL;
	// default equal to DRAM (a common expander sizing). Ignored by other
	// modes.
	CXLBytes int64
	// Placement overrides the ModeCXL placement-loop configuration; nil
	// selects place.DefaultConfig. Like Senpai, this is the boot-time
	// config; a rollout-pushed policy may replace it live.
	Placement *place.Config
	// NCPU enables CPU contention when worker demand exceeds it; zero
	// disables.
	NCPU int
	// SwapReadahead is the kernel swap-readahead depth; zero disables.
	SwapReadahead int
	// Writeback bounds the SSD swap partition's async writeback queue
	// (depth, IOPS, byte-rate caps); the zero value selects the default
	// depth-64 queue with device-derived rates. Ignored by modes without
	// an SSD swap tier.
	Writeback backend.WritebackConfig
	// Seed derives all of the system's random streams.
	Seed uint64
}

// Default backend sizing, as fractions and multiples of host DRAM.
const (
	// DefaultPoolFrac caps a default zswap pool at a quarter of DRAM.
	DefaultPoolFrac = 0.25
	// DefaultSwapFactor sizes default SSD swap and NVM at 4x DRAM.
	DefaultSwapFactor = 4
)

// System is one assembled TMO host.
type System struct {
	Opts   Options
	Server *sim.Server
	Senpai *senpai.Controller
	Device *backend.SSDDevice
	// Chain is the swap backend of every swap mode (it owns its pools, SSD
	// partition, or NVM device); nil in ModeOff and ModeFileOnly.
	Chain *backend.TierChain
	// CXL is the byte-addressable far-memory node (ModeCXL), with Place
	// the TPP-style loop migrating pages between it and local DRAM.
	CXL   *backend.CXLNode
	Place *place.Controller
	// Trace collects controller decisions (the fleet-telemetry stand-in);
	// tmosim -trace dumps it.
	Trace *trace.Log
	// Telemetry is the host's metrics registry; every layer publishes into
	// it and tmosim -metrics-out dumps it.
	Telemetry *telemetry.Registry
	// Tracer records the span timeline (Senpai ticks, probes, kills);
	// tmosim -trace-out exports it in Chrome trace_event format.
	Tracer *trace.Recorder

	chaosEng    *chaos.Engine
	nextAppSeed uint64
}

// New assembles a system.
func New(opts Options) *System {
	if opts.CapacityBytes <= 0 {
		panic("core: CapacityBytes required")
	}
	if opts.DeviceModel == "" {
		opts.DeviceModel = "C"
	}
	spec, err := backend.DeviceByModel(opts.DeviceModel)
	if err != nil {
		panic("core: " + err.Error())
	}

	sys := &System{Opts: opts, nextAppSeed: opts.Seed*1e6 + 1}
	sys.Device = backend.NewSSDDevice(spec, opts.Seed^0xdead)

	var swap backend.SwapBackend
	if specs := chainSpecs(opts); specs != nil {
		sys.Chain = backend.NewTierChain(specs, sys.Device, opts.Seed^0xbeef)
		sys.Chain.ConfigureWriteback(opts.Writeback)
		swap = sys.Chain
	}
	if opts.Mode == ModeCXL {
		// Byte-addressable placement tier: local DRAM over a CXL node,
		// with the swap chain as the third rung once the node fills.
		cxlSpec := backend.SpecCXLNode
		cxlSpec.CapacityBytes = opts.CXLBytes
		if cxlSpec.CapacityBytes <= 0 {
			cxlSpec.CapacityBytes = opts.CapacityBytes
		}
		sys.CXL = backend.NewCXLNode(cxlSpec)
	}

	sys.Server = sim.NewServer(sim.Config{
		CapacityBytes: opts.CapacityBytes,
		TickLen:       opts.TickLen,
		Device:        sys.Device,
		Swap:          swap,
		Far:           sys.CXL,
		Policy:        opts.Policy,
		NCPU:          opts.NCPU,
		SwapReadahead: opts.SwapReadahead,
	})

	sys.Trace = trace.NewLog(4096)
	sys.Telemetry = telemetry.NewRegistry()
	sys.Tracer = trace.NewRecorder(1 << 16)
	if opts.Mode != ModeOff && !opts.DisableSenpai {
		cfg := senpai.ConfigA()
		if opts.Senpai != nil {
			cfg = *opts.Senpai
		}
		sys.Senpai = senpai.New(cfg, swap)
		sys.Senpai.SetTrace(sys.Trace)
		sys.Senpai.SetRecorder(sys.Tracer)
		sys.Senpai.EnableTelemetry(sys.Telemetry)
		if sys.CXL != nil {
			sys.Senpai.SetFarNode(sys.CXL)
		}
		sys.Server.AddController(sys.Senpai)
	}
	if sys.CXL != nil {
		pcfg := place.DefaultConfig()
		if opts.Placement != nil {
			pcfg = *opts.Placement
		}
		sys.Place = place.New(pcfg, sys.Server.Manager(), sys.CXL)
		sys.Place.SetTrace(sys.Trace)
		sys.Place.EnableTelemetry(sys.Telemetry)
		sys.Server.AddController(sys.Place)
	}
	sys.wireTelemetry()
	return sys
}

// chainSpecs resolves the swap chain layout for opts: Options.Tiers, or the
// mode's default, with unsized SSD/NVM tiers given DefaultSwapFactor x
// DRAM. It returns nil for the modes without swap.
func chainSpecs(opts Options) []backend.TierSpec {
	pool := int64(float64(opts.CapacityBytes) * DefaultPoolFrac)
	swap := DefaultSwapFactor * opts.CapacityBytes
	var specs []backend.TierSpec
	switch opts.Mode {
	case ModeOff, ModeFileOnly:
		return nil
	case ModeZswap:
		specs = []backend.TierSpec{{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: pool}}
	case ModeSSDSwap, ModeCXL:
		specs = []backend.TierSpec{{Kind: backend.TierSSD, CapacityBytes: swap}}
	case ModeNVM:
		specs = []backend.TierSpec{{Kind: backend.TierNVM, CapacityBytes: swap}}
	case ModeTiered:
		specs = backend.DefaultChainSpecs(pool, swap)
	}
	if len(opts.Tiers) > 0 {
		// Copy: fleets share one layout slice across concurrently built hosts.
		specs = append([]backend.TierSpec(nil), opts.Tiers...)
	}
	for i := range specs {
		if specs[i].Kind != backend.TierZswap && specs[i].CapacityBytes <= 0 {
			specs[i].CapacityBytes = swap
		}
	}
	return specs
}

// wireTelemetry connects every layer to the system's registry and decision
// logs: the memory manager, the device and offload backends, the simulator's
// PSI integration, and gauge functions over quantities other layers already
// track (host occupancy, root PSI totals, swap contents).
func (s *System) wireTelemetry() {
	reg := s.Telemetry
	mgr := s.Server.Manager()
	mgr.EnableTelemetry(reg)
	mgr.SetTrace(s.Trace)
	s.Server.EnableTelemetry(reg)
	s.Device.EnableTelemetry(reg)
	if s.Chain != nil {
		// The chain wires per-tier instruments (labelled so stacked pools
		// stay distinguishable) and its SSD tier's writeback queue itself.
		s.Chain.EnableTelemetry(reg)
		s.Chain.SetTrace(s.Trace)
	}
	if s.CXL != nil {
		s.CXL.EnableTelemetry(reg)
	}

	reg.GaugeFunc("host.capacity_bytes", func() float64 { return float64(mgr.HostStat().CapacityBytes) })
	reg.GaugeFunc("host.resident_bytes", func() float64 { return float64(mgr.HostStat().ResidentBytes) })
	reg.GaugeFunc("host.pool_bytes", func() float64 { return float64(mgr.HostStat().PoolBytes) })
	reg.GaugeFunc("host.free_bytes", func() float64 { return float64(mgr.HostStat().FreeBytes) })
	if s.CXL != nil {
		reg.GaugeFunc("host.far_bytes", func() float64 { return float64(mgr.HostStat().FarBytes) })
	}

	// Root PSI totals, synced to the current virtual instant on read — the
	// pressure-file "total" fields production Senpai differences.
	root := s.Server.Hierarchy().Root()
	for _, res := range []struct {
		r    psi.Resource
		name string
	}{{psi.Memory, "memory"}, {psi.IO, "io"}, {psi.CPU, "cpu"}} {
		res := res
		for _, kind := range []struct {
			k    psi.Kind
			name string
		}{{psi.Some, "some"}, {psi.Full, "full"}} {
			kind := kind
			reg.GaugeFunc("psi."+res.name+"."+kind.name+"_total_us", func() float64 {
				tr := root.PSI()
				tr.Sync(s.Server.Now())
				return float64(tr.Total(res.r, kind.k))
			})
		}
	}

	if sw := s.Server.Swap(); sw != nil {
		reg.GaugeFunc("swap.stored_pages", func() float64 { return float64(sw.Stats().StoredPages) })
		reg.GaugeFunc("swap.logical_bytes", func() float64 { return float64(sw.Stats().LogicalBytes) })
		reg.GaugeFunc("swap.stored_bytes", func() float64 { return float64(sw.Stats().StoredBytes) })
	}
}

// Chaos returns the system's fault-injection engine, creating and
// registering it on first use: its Tick runs at the start of every
// simulation tick, and its events land in the system's telemetry registry,
// decision log, and span timeline.
func (s *System) Chaos() *chaos.Engine {
	if s.chaosEng == nil {
		s.chaosEng = chaos.NewEngine(chaos.Host{
			Device:            s.Device,
			Manager:           s.Server.Manager(),
			Swap:              s.Server.Swap(),
			CXL:               s.CXL,
			SwapCapacityBytes: s.SwapCapacityBytes(),
			Apps:              s.Server.Apps,
			Seed:              s.Opts.Seed ^ 0xc4a05c4a05,
			Telemetry:         s.Telemetry,
			Trace:             s.Trace,
			Recorder:          s.Tracer,
		})
		s.Server.OnTickStart(s.chaosEng.Tick)
	}
	return s.chaosEng
}

// SwapCapacityBytes returns the swap chain's total capacity, 0 in the modes
// without swap.
func (s *System) SwapCapacityBytes() int64 {
	if s.Chain == nil {
		return 0
	}
	return s.Chain.CapacityBytes()
}

// TelemetrySnapshot captures the registry's current state.
func (s *System) TelemetrySnapshot() telemetry.Snapshot { return s.Telemetry.Snapshot() }

// AddWorkload instantiates a catalog profile as a workload container and,
// when Senpai is enabled, registers it as an offloading target.
func (s *System) AddWorkload(name string) *workload.App {
	return s.AddProfile(workload.MustCatalog(name), cgroup.Workload)
}

// AddTax instantiates the two memory-tax sidecars of §2.3 and registers
// them with Senpai under the relaxed-SLA tax override (§2.3/§3.3: the taxes
// tolerate more pressure, which made them the first production target); it
// returns the datacenter-tax and microservice-tax apps.
func (s *System) AddTax() (dc, micro *workload.App) {
	dc = s.addProfileWithConfig(workload.MustCatalog("datacenter-tax"), cgroup.DatacenterTax, senpaiTaxOverride(s))
	micro = s.addProfileWithConfig(workload.MustCatalog("microservice-tax"), cgroup.MicroserviceTax, senpaiTaxOverride(s))
	return dc, micro
}

// AddTaxProfiles is AddTax with caller-supplied (e.g. scaled) profiles.
func (s *System) AddTaxProfiles(dcProf, microProf workload.Profile) (dc, micro *workload.App) {
	dc = s.addProfileWithConfig(dcProf, cgroup.DatacenterTax, senpaiTaxOverride(s))
	micro = s.addProfileWithConfig(microProf, cgroup.MicroserviceTax, senpaiTaxOverride(s))
	return dc, micro
}

// senpaiTaxOverride derives the tax override from the system's own Senpai
// configuration, preserving any experiment-level speedups.
func senpaiTaxOverride(s *System) *senpai.Config {
	if s.Senpai == nil {
		return nil
	}
	c := s.Senpai.Config()
	c.ReclaimRatio *= 4
	c.MemPressureThreshold *= 5
	c.IOPressureThreshold *= 2
	return &c
}

// addProfileWithConfig is AddProfile with an optional per-target Senpai
// configuration.
func (s *System) addProfileWithConfig(p workload.Profile, kind cgroup.Kind, override *senpai.Config) *workload.App {
	seed := s.nextAppSeed
	s.nextAppSeed++
	app := s.Server.AddApp(p, kind, nil, seed)
	if s.Senpai != nil {
		if override != nil {
			s.Senpai.AddTargetWithConfig(app.Group, *override)
		} else {
			s.Senpai.AddTarget(app.Group)
		}
	}
	if s.Place != nil {
		s.Place.AddTarget(app.Group)
	}
	return app
}

// AddProfile instantiates an arbitrary profile with an explicit container
// kind.
func (s *System) AddProfile(p workload.Profile, kind cgroup.Kind) *workload.App {
	return s.addProfileWithConfig(p, kind, nil)
}

// Run advances the system by d of virtual time.
func (s *System) Run(d vclock.Duration) { s.Server.Run(d) }

// Metrics is a point-in-time system snapshot.
type Metrics struct {
	// Host occupancy.
	CapacityBytes, ResidentBytes, PoolBytes, FreeBytes int64
	// Swap backend contents (zero values in ModeOff/ModeFileOnly).
	SwappedPages, SwappedBytes int64
	// FarBytes is memory placed on the CXL far node (ModeCXL only).
	FarBytes int64
	// Cumulative endurance-relevant writes.
	DeviceWrittenBytes int64
	// OOMEvents counts overcommit incidents.
	OOMEvents int64
}

// Metrics returns the current snapshot.
func (s *System) Metrics() Metrics {
	host := s.Server.Manager().HostStat()
	m := Metrics{
		CapacityBytes:      host.CapacityBytes,
		ResidentBytes:      host.ResidentBytes,
		PoolBytes:          host.PoolBytes,
		FreeBytes:          host.FreeBytes,
		FarBytes:           host.FarBytes,
		DeviceWrittenBytes: s.Device.WrittenBytes(),
		OOMEvents:          s.Server.Manager().OOMEvents(),
	}
	if sw := s.Server.Swap(); sw != nil {
		st := sw.Stats()
		m.SwappedPages = st.StoredPages
		m.SwappedBytes = st.LogicalBytes
	}
	return m
}

// NetResidentBytes returns application resident memory plus backend pool
// overhead — the quantity whose reduction constitutes TMO's savings.
func (s *System) NetResidentBytes() int64 {
	h := s.Server.Manager().HostStat()
	return h.ResidentBytes + h.PoolBytes
}
