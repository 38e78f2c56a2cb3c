package core

import (
	"testing"

	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/psi"
	"tmo/internal/senpai"
	"tmo/internal/trace"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

const MiB = workload.MiB

// fastSenpai returns a config that converges quickly enough for tests:
// same control law, larger ratio.
func fastSenpai() *senpai.Config {
	c := senpai.ConfigA()
	c.ReclaimRatio = 0.005
	return &c
}

// TestSystemModes pins the chain layout each mode builds by default: the
// swap modes differ only in their TierSpecs.
func TestSystemModes(t *testing.T) {
	const dram = 512 * MiB
	zstd := backend.TierSpec{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: dram / 4}
	ssd := backend.TierSpec{Kind: backend.TierSSD, CapacityBytes: 4 * dram}
	nvm := backend.TierSpec{Kind: backend.TierNVM, CapacityBytes: 4 * dram}
	dense := zstd
	dense.MinCompressRatio = 1.5
	want := map[Mode][]backend.TierSpec{
		ModeOff:      nil,
		ModeFileOnly: nil,
		ModeZswap:    {zstd},
		ModeSSDSwap:  {ssd},
		ModeTiered:   {dense, ssd},
		ModeNVM:      {nvm},
		ModeCXL:      {ssd},
	}
	for mode, tiers := range want {
		sys := New(Options{Mode: mode, CapacityBytes: dram, Seed: 1})
		if mode == ModeOff && sys.Senpai != nil {
			t.Fatalf("ModeOff must not run senpai")
		}
		if mode != ModeOff && sys.Senpai == nil {
			t.Fatalf("%v: senpai missing", mode)
		}
		if (mode == ModeCXL) != (sys.CXL != nil) {
			t.Fatalf("%v: CXL node present = %v", mode, sys.CXL != nil)
		}
		if tiers == nil {
			if sys.Chain != nil || sys.Server.Swap() != nil {
				t.Fatalf("%v: swap chain built for a mode without swap", mode)
			}
			continue
		}
		got := sys.Chain.TierSpecs()
		if len(got) != len(tiers) {
			t.Fatalf("%v: %d tiers, want %d", mode, len(got), len(tiers))
		}
		for i, w := range tiers {
			g := got[i]
			if g.Kind != w.Kind || g.Label() != w.Label() || g.CapacityBytes != w.CapacityBytes ||
				g.MinCompressRatio != max(w.MinCompressRatio, 1) {
				t.Fatalf("%v tier %d = %+v, want %+v", mode, i, g, w)
			}
		}
		if sys.SwapCapacityBytes() != sys.Chain.CapacityBytes() || sys.SwapCapacityBytes() <= 0 {
			t.Fatalf("%v: swap capacity %d", mode, sys.SwapCapacityBytes())
		}
	}
}

// TestOptionsTiersOverride: Options.Tiers replaces any swap mode's default
// layout, an unsized SSD tier gets the default 4x DRAM, and the caller's
// slice is left untouched.
func TestOptionsTiersOverride(t *testing.T) {
	tiers := []backend.TierSpec{
		{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 8 * MiB},
		{Kind: backend.TierSSD},
	}
	sys := New(Options{Mode: ModeZswap, CapacityBytes: 512 * MiB, Tiers: tiers, Seed: 1})
	got := sys.Chain.TierSpecs()
	if len(got) != 2 || got[0].Label() != "lz4" || got[1].CapacityBytes != DefaultSwapFactor*512*MiB {
		t.Fatalf("override layout = %+v", got)
	}
	if tiers[1].CapacityBytes != 0 {
		t.Fatalf("core.New sized the caller's tier slice in place")
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]Mode{
		"off": ModeOff, "file-only": ModeFileOnly, "zswap": ModeZswap,
		"ssd": ModeSSDSwap, "ssd-swap": ModeSSDSwap, "tiered": ModeTiered, "nvm": ModeNVM, "cxl": ModeCXL,
	}
	for s, want := range cases {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	_, err := ParseMode("floppy")
	if want := `unknown mode "floppy" (off, file-only, zswap, ssd, tiered, nvm, cxl)`; err == nil || err.Error() != want {
		t.Fatalf("ParseMode(floppy) error = %v, want %q", err, want)
	}
}

func TestModeStrings(t *testing.T) {
	want := map[Mode]string{ModeOff: "off", ModeFileOnly: "file-only", ModeZswap: "zswap", ModeSSDSwap: "ssd-swap",
		ModeTiered: "tiered", ModeNVM: "nvm", ModeCXL: "cxl", Mode(7): "mode(7)", Mode(-1): "mode(-1)"}
	for m, s := range want {
		if m.String() != s {
			t.Fatalf("mode %d = %q", m, m.String())
		}
	}
}

// TestSenpaiOffloadsColdMemory is the core end-to-end behaviour: a workload
// with substantial cold memory runs under TMO with a zswap backend; Senpai
// must shrink its resident set appreciably while keeping memory pressure
// near the configured threshold.
func TestSenpaiOffloadsColdMemory(t *testing.T) {
	sys := New(Options{
		Mode:          ModeZswap,
		CapacityBytes: 512 * MiB,
		Senpai:        fastSenpai(),
		Seed:          2,
	})
	app := sys.AddWorkload("feed")
	sys.Run(2 * vclock.Minute) // warm up
	before := app.Group.MemoryCurrent()
	sys.Run(20 * vclock.Minute)
	after := app.Group.MemoryCurrent()

	savings := 1 - float64(after)/float64(before)
	if savings < 0.10 {
		t.Fatalf("senpai saved only %.1f%% of feed's resident memory", 100*savings)
	}
	// Feed has ~30% cold memory; savings beyond ~45% would mean senpai is
	// thrashing the working set.
	if savings > 0.50 {
		t.Fatalf("senpai reclaimed implausibly much: %.1f%%", 100*savings)
	}

	// Pressure must stay in the same order of magnitude as the threshold.
	act := sys.Senpai.LastAction(app.Group)
	if act.MemPressure > 10*sys.Senpai.Config().MemPressureThreshold {
		t.Fatalf("memory pressure %.4f far above threshold", act.MemPressure)
	}
	if sys.Metrics().SwappedPages == 0 {
		t.Fatalf("no pages offloaded to zswap")
	}
	if sys.Metrics().OOMEvents != 0 {
		t.Fatalf("OOM events during proactive offload")
	}
}

// TestZswapNetSavingsPositive: the pool cost must not eat the savings for a
// compressible workload with a stable footprint.
func TestZswapNetSavingsPositive(t *testing.T) {
	sys := New(Options{Mode: ModeZswap, CapacityBytes: 512 * MiB, Senpai: fastSenpai(), Seed: 3})
	app := sys.AddWorkload("feed")
	_ = app
	sys.Run(2 * vclock.Minute)
	before := sys.NetResidentBytes()
	sys.Run(15 * vclock.Minute)
	after := sys.NetResidentBytes()
	if after >= before {
		t.Fatalf("no net savings: before=%d after=%d", before, after)
	}
	m := sys.Metrics()
	// Feed compresses ~3x: pool bytes must be well under swapped logical
	// bytes.
	if m.PoolBytes*2 >= m.SwappedBytes && m.SwappedBytes > 0 {
		t.Fatalf("pool %d vs swapped %d: compression ineffective", m.PoolBytes, m.SwappedBytes)
	}
}

// TestFileOnlyModeNeverSwaps: §5.1's first deployment stage.
func TestFileOnlyModeNeverSwaps(t *testing.T) {
	sys := New(Options{Mode: ModeFileOnly, CapacityBytes: 512 * MiB, Senpai: fastSenpai(), Seed: 4})
	app := sys.AddWorkload("analytics")
	sys.Run(10 * vclock.Minute)
	if st := app.Group.MM().Stat(); st.SwapOuts != 0 {
		t.Fatalf("file-only mode swapped %d pages", st.SwapOuts)
	}
	if st := app.Group.MM().Stat(); st.FileEvictions == 0 {
		t.Fatalf("file-only mode reclaimed nothing")
	}
}

// TestOffModeIsInert: without TMO nothing is proactively reclaimed while
// memory is plentiful.
func TestOffModeIsInert(t *testing.T) {
	sys := New(Options{Mode: ModeOff, CapacityBytes: 512 * MiB, Seed: 5})
	app := sys.AddWorkload("cache-b")
	sys.Run(30 * vclock.Second)
	before := app.Group.MemoryCurrent()
	sys.Run(5 * vclock.Minute)
	if got := app.Group.MemoryCurrent(); got < before {
		t.Fatalf("resident shrank with TMO off: %d -> %d", before, got)
	}
}

// TestTaxContainers: the tax sidecars register and offload.
func TestTaxContainers(t *testing.T) {
	sys := New(Options{Mode: ModeZswap, CapacityBytes: 512 * MiB, Senpai: fastSenpai(), Seed: 6})
	dc, micro := sys.AddTax()
	if dc.Group.Kind() != cgroup.DatacenterTax || micro.Group.Kind() != cgroup.MicroserviceTax {
		t.Fatalf("tax kinds wrong")
	}
	sys.Run(2 * vclock.Minute)
	before := dc.Group.MemoryCurrent() + micro.Group.MemoryCurrent()
	sys.Run(20 * vclock.Minute)
	after := dc.Group.MemoryCurrent() + micro.Group.MemoryCurrent()
	savings := 1 - float64(after)/float64(before)
	// Tax memory is mostly cold; TMO should recover a large share.
	if savings < 0.20 {
		t.Fatalf("tax savings only %.1f%%", 100*savings)
	}
}

// TestSenpaiAdaptsToDeviceDegradation: §4.3's point as a failure-injection
// test — when the offload device's health deteriorates mid-run (firmware
// pause, thermal throttle), the PSI feedback must automatically back off:
// fewer swap-ins, more resident memory, pressure re-bounded, no retuning.
func TestSenpaiAdaptsToDeviceDegradation(t *testing.T) {
	sys := New(Options{
		Mode:          ModeSSDSwap,
		CapacityBytes: 512 * MiB,
		Senpai:        fastSenpai(),
		Seed:          20,
	})
	app := sys.AddWorkload("feed")
	sys.Run(12 * vclock.Minute) // converge on the healthy device

	healthyResident := app.Group.MemoryCurrent()
	healthySwapped := app.Group.MM().SwappedBytes()
	if healthySwapped == 0 {
		t.Fatalf("nothing offloaded on the healthy device")
	}

	// The device degrades 20x.
	sys.Device.SetDegradation(20)
	sys.Run(15 * vclock.Minute)

	degradedResident := app.Group.MemoryCurrent()
	degradedSwapped := app.Group.MM().SwappedBytes()
	if degradedSwapped >= 7*healthySwapped/10 {
		t.Fatalf("swap depth did not back off meaningfully: %d -> %d bytes", healthySwapped, degradedSwapped)
	}
	if degradedResident <= healthyResident {
		t.Fatalf("resident did not recover: %d -> %d", healthyResident, degradedResident)
	}
	// Pressure must stay the same order of magnitude as the target at the
	// new equilibrium — bounded, not runaway. (The boosted test ratio
	// makes each probe spike larger than production's, so the duty-cycled
	// mean sits a few multiples above the threshold.)
	act := sys.Senpai.LastAction(app.Group)
	if act.MemPressure > 10*sys.Senpai.Config().MemPressureThreshold {
		t.Fatalf("pressure runaway after adaptation: %v", act.MemPressure)
	}
}

// TestNVMMode: the §2.5 NVM tier assembles and offloads with a pure
// memory-stall signature.
func TestNVMMode(t *testing.T) {
	sys := New(Options{Mode: ModeNVM, CapacityBytes: 512 * MiB, Senpai: fastSenpai(), Seed: 21})
	app := sys.AddWorkload("feed")
	sys.Run(10 * vclock.Minute)
	if sys.Chain.Stats().StoredPages == 0 {
		t.Fatal("nothing offloaded")
	}
	if sys.Metrics().PoolBytes != 0 {
		t.Fatal("NVM tier consumed host DRAM")
	}
	st := app.Group.MM().Stat()
	if st.SwapIns == 0 {
		t.Fatal("no swap-ins")
	}
}

// TestCXLMode: ModeCXL assembles the far-memory node, the placement loop,
// and SSD swap as the third rung; reclaim demotes ahead of swap and the
// placement loop promotes some of what turns hot again.
func TestCXLMode(t *testing.T) {
	sys := New(Options{Mode: ModeCXL, CapacityBytes: 512 * MiB, Senpai: fastSenpai(), Seed: 21})
	app := sys.AddWorkload("feed")
	sys.Run(10 * vclock.Minute)
	if sys.CXL == nil {
		t.Fatal("CXL node missing")
	}
	if sys.Place == nil {
		t.Fatal("placement controller missing")
	}
	if sys.Chain == nil || sys.Chain.SSD() == nil {
		t.Fatal("SSD swap third rung missing")
	}
	if sys.Metrics().FarBytes == 0 {
		t.Fatal("nothing placed on the far node")
	}
	if sys.Metrics().PoolBytes != 0 {
		t.Fatal("CXL tier consumed host DRAM")
	}
	st := app.Group.MM().Stat()
	if st.Demotions == 0 {
		t.Fatal("no demotions to the far tier")
	}
	if sys.Place.Stats().Promotions == 0 {
		t.Fatal("placement loop promoted nothing")
	}
	// The host snapshot's far bytes must agree with the node's occupancy.
	if got, want := sys.Metrics().FarBytes, sys.CXL.UsedBytes(); got != want {
		t.Fatalf("far bytes disagree: metrics %d, node %d", got, want)
	}

	// The decision stream holds one place.promote instant per promotion
	// outcome and no per-fault records: refaults are counted by the
	// registry, not traced.
	if m, _ := sys.TelemetrySnapshot().Get("mm.refaults"); m.Value == 0 {
		t.Fatal("run too quiet: no refaults")
	}
	var outcomes int64
	for _, r := range sys.Trace.Records() {
		switch r.Cat {
		case trace.KindPlacePromote:
			outcomes++
		case "mm.refault":
			t.Fatalf("per-fault record in the decision stream: %+v", r)
		}
	}
	pst := sys.Place.Stats()
	if sys.Trace.Dropped() != 0 || outcomes != pst.Promotions+pst.Aborts() {
		t.Fatalf("%d place.promote instants (%d dropped), want one per outcome (%d)",
			outcomes, sys.Trace.Dropped(), pst.Promotions+pst.Aborts())
	}
}

// TestTieredMode: the multi-tier chain assembles through core with the
// classic two-tier layout around a tight pool (its unsized SSD tier gets the
// default size), routes incompressible pages past the pool's admission
// threshold, and offloads into both tiers.
func TestTieredMode(t *testing.T) {
	capacity := int64(512 * MiB)
	sys := New(Options{
		Mode:          ModeTiered,
		CapacityBytes: capacity,
		Tiers:         backend.DefaultChainSpecs(int64(float64(capacity)*0.002), 0),
		Senpai:        fastSenpai(),
		Seed:          22,
	})
	sys.AddWorkload("feed")
	sys.AddWorkload("ml")
	sys.Run(12 * vclock.Minute)
	if sys.Chain == nil {
		t.Fatalf("tier chain missing")
	}
	if got := len(sys.Chain.TierSpecs()); got != 2 {
		t.Fatalf("default chain has %d tiers, want 2", got)
	}
	if sys.Chain.AdmitSkips() == 0 {
		t.Fatalf("incompressible pages not routed past the pool tier")
	}
	if sys.Chain.Stats().StoredPages == 0 {
		t.Fatalf("nothing offloaded")
	}
}

// TestTieredModeExplicitTiers: Options.Tiers builds an arbitrary chain — a
// 3-tier lz4/zstd/SSD layout — and pages land across it.
func TestTieredModeExplicitTiers(t *testing.T) {
	sys := New(Options{
		Mode:          ModeTiered,
		CapacityBytes: 512 * MiB,
		Tiers: []backend.TierSpec{
			{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 2 * MiB},
			{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: 8 * MiB, MinCompressRatio: 1.5},
			{Kind: backend.TierSSD, CapacityBytes: 2048 * MiB},
		},
		Senpai: fastSenpai(),
		Seed:   22,
	})
	sys.AddWorkload("feed")
	sys.AddWorkload("ml")
	sys.Run(12 * vclock.Minute)
	if sys.Chain == nil || len(sys.Chain.TierSpecs()) != 3 {
		t.Fatalf("explicit 3-tier chain missing")
	}
	if sys.Chain.Stats().StoredPages == 0 {
		t.Fatalf("nothing offloaded")
	}
	if st := sys.Chain.TierStats(0); st.TotalWrites == 0 {
		t.Fatalf("fast tier took no stores")
	}
	if sys.Chain.CapacityBytes() == 0 {
		t.Fatalf("bounded chain reports unbounded capacity")
	}
}

// TestWorkingSetProfileEndToEnd: the §3.3 provisioning insight — after
// Senpai converges, the profile exposes how much the workload was
// overprovisioned.
func TestWorkingSetProfileEndToEnd(t *testing.T) {
	sys := New(Options{Mode: ModeZswap, CapacityBytes: 512 * MiB, Senpai: fastSenpai(), Seed: 23})
	app := sys.AddWorkload("analytics")
	sys.Run(20 * vclock.Minute)
	w := sys.Senpai.WorkingSet(app.Group)
	if w.Samples < 100 {
		t.Fatalf("profile samples = %d", w.Samples)
	}
	// Analytics has ~45% cold memory; the profile must report substantial
	// overprovisioning.
	if w.OverprovisionFrac() < 0.10 {
		t.Fatalf("overprovision = %.2f, want >= 0.10", w.OverprovisionFrac())
	}
	if w.MinBytes >= w.MaxBytes {
		t.Fatalf("profile bounds: %+v", w)
	}
}

// TestPSIStaysConsistent: after a long mixed run, machine-wide PSI is a
// valid aggregate (some >= full, totals within elapsed time).
func TestPSIStaysConsistent(t *testing.T) {
	sys := New(Options{Mode: ModeSSDSwap, CapacityBytes: 512 * MiB, Senpai: fastSenpai(), Seed: 7})
	sys.AddWorkload("feed")
	sys.AddWorkload("cache-a")
	sys.AddTax()
	d := 10 * vclock.Minute
	sys.Run(d)
	root := sys.Server.Hierarchy().Root().PSI()
	root.Sync(sys.Server.Now())
	for _, r := range []psi.Resource{psi.CPU, psi.Memory, psi.IO} {
		some, full := root.Total(r, psi.Some), root.Total(r, psi.Full)
		if full > some {
			t.Fatalf("%v: full %v > some %v", r, full, some)
		}
		if some > d {
			t.Fatalf("%v: some %v exceeds elapsed %v", r, some, d)
		}
	}
}
