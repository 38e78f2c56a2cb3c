package main

import (
	"fmt"
	"hash"
	"hash/fnv"
	"strings"
	"time"

	"tmo/cmd/internal/cliutil"
	"tmo/internal/core"
	"tmo/internal/psi"
	"tmo/internal/senpai"
	"tmo/internal/telemetry"
	"tmo/internal/tsdb"
	"tmo/internal/vclock"
)

// hostServices is the co-located mix both host workloads run, next to the
// two memory-tax sidecars of core.System.AddTax: 1142 MiB of footprint.
var hostServices = []string{"feed", "cache-a", "ads-a", "ads-b", "analytics"}

const (
	// hostDRAM is 1.1x the mix's footprint: tight enough that offloading
	// pays, loose enough that Senpai's proactive reclaim, not direct
	// reclaim, drives it.
	hostDRAM = 1256 << 20
	// hostTiers keeps host-chain's compressed tiers small, so stores land in
	// all three tiers and demotions reach the SSD through the writeback queue.
	hostTiers = "lz4:12m,zstd:12m,ssd"
	// hostCXLBytes sizes host-cxl's far node at half the mix's footprint.
	hostCXLBytes = 571 << 20

	hostTick       = 100 * vclock.Millisecond
	ticksPerMinute = int(vclock.Minute / hostTick)
)

// hostOptions configures one host of the given mode. Senpai runs the
// production Config A at the reclaim ratio the quick-scale experiments use
// (16x), so a run of tens of virtual minutes covers the hours production
// offloading takes to reach its cold-memory equilibrium.
func hostOptions(mode core.Mode, seed uint64) core.Options {
	cfg := senpai.ConfigA()
	cfg.ReclaimRatio *= 16
	o := core.Options{Mode: mode, CapacityBytes: hostDRAM, DeviceModel: "C", TickLen: hostTick, Senpai: &cfg, Seed: seed}
	switch mode {
	case core.ModeTiered:
		o.Tiers = cliutil.MustTierSpec("tmobench", hostTiers)
	case core.ModeCXL:
		o.CXLBytes = hostCXLBytes
	}
	return o
}

// runHost builds the host (the set-up), then advances it minutes of virtual
// time one 100ms tick at a time. After every virtual minute it snapshots the
// telemetry registry, scrapes the snapshot into a TSDB, and checks that the
// layers agree on where every page and byte is.
func runHost(mode core.Mode, minutes int, seed uint64, sp *spans) rep {
	r := newRep()
	start := time.Now()
	end := sp.begin("setup")
	sys := core.New(hostOptions(mode, seed))
	for _, name := range hostServices {
		sys.AddWorkload(name)
	}
	sys.AddTax()
	end()
	r.setup = time.Since(start)

	apps := sys.Server.Apps()
	var footprint int64
	for _, a := range apps {
		footprint += a.Profile.FootprintBytes
	}
	mgr := sys.Server.Manager()
	db := tsdb.New(tsdb.Config{})
	scraper := &tsdb.Scraper{DB: db}
	digest := fnv.New64a()
	ticks := make([]float64, 0, minutes*ticksPerMinute)
	var snaps, scrapes []float64
	var savings float64

	start = time.Now()
	for m := 1; m <= minutes; m++ {
		end := sp.begin("segment")
		for i := 0; i < ticksPerMinute; i++ {
			t := time.Now()
			sys.Run(hostTick)
			ticks = append(ticks, micros(time.Since(t)))
		}
		end()

		end = sp.begin("snapshot")
		t := time.Now()
		snap := sys.TelemetrySnapshot()
		snaps = append(snaps, micros(time.Since(t)))
		end()

		end = sp.begin("scrape")
		t = time.Now()
		scraper.ScrapeSnapshot(sys.Server.Now(), nil, snap)
		scrapes = append(scrapes, micros(time.Since(t)))
		end()

		end = sp.begin("check")
		r.op(fmt.Sprintf("minute %d", m), checkHost(sys))
		hs := mgr.HostStat()
		savings += 100 * float64(footprint-hs.ResidentBytes-hs.PoolBytes) / float64(footprint)
		hashSnapshot(digest, snap)
		end()
	}
	r.work = time.Since(start)
	r.samples["sim.tick_us"] = ticks
	r.samples["telemetry.snapshot_us"] = snaps
	r.samples["tsdb.scrape_us"] = scrapes

	now := sys.Server.Now()
	var completed int64
	var nominal, psiFrac float64
	for _, a := range apps {
		completed += a.Completed()
		nominal += a.Profile.NominalRPS() * now.Seconds()
		tr := a.Group.PSI()
		tr.Sync(now)
		psiFrac += float64(tr.Total(psi.Memory, psi.Some)) / float64(now)
	}
	r.outcome = map[string]float64{
		"savings_pct": savings / float64(minutes),
		"mem_psi_pct": 100 * psiFrac / float64(len(apps)),
		"rps_ratio":   float64(completed) / nominal,
	}
	r.counts = hostCounts(sys.TelemetrySnapshot())
	r.counts["workload.requests"] = float64(completed)
	r.counts["tsdb.series"] = float64(db.NumSeries())
	r.counts["tsdb.samples"] = float64(db.NumSamples())
	r.virtual = now.Seconds()
	r.digest = digest.Sum64()

	if n := mgr.OOMEvents(); n > 0 {
		r.fail(fmt.Sprintf("%d OOM events", n))
	}
	r.fail(hostMechanism(mode, r.counts)...)
	return r
}

// checkHost checks the cross-layer accounting identities at one instant:
// host DRAM splits exactly into resident, pool and free bytes; the pages
// the memory manager believes are swapped out are the pages the swap
// backend holds; and the backend and far node agree with the host's view
// of their DRAM and far-memory use.
func checkHost(sys *core.System) []string {
	var errs []string
	hs := sys.Server.Manager().HostStat()
	if sum := hs.ResidentBytes + hs.PoolBytes + hs.FreeBytes; sum != hs.CapacityBytes {
		errs = append(errs, fmt.Sprintf("capacity %d != resident+pool+free %d", hs.CapacityBytes, sum))
	}
	if sw := sys.Server.Swap(); sw != nil {
		var swapped int64
		for _, a := range sys.Server.Apps() {
			swapped += a.Group.MM().SwappedPages()
		}
		if stored := sw.Stats().StoredPages; swapped != stored {
			errs = append(errs, fmt.Sprintf("groups hold %d swapped pages, backend stores %d", swapped, stored))
		}
		if pool := sw.PoolBytes(); pool != hs.PoolBytes {
			errs = append(errs, fmt.Sprintf("backend pool %d B != host pool %d B", pool, hs.PoolBytes))
		}
	}
	if sys.CXL != nil {
		if used := sys.CXL.UsedBytes(); used != hs.FarBytes {
			errs = append(errs, fmt.Sprintf("far node holds %d B, host sees %d B", used, hs.FarBytes))
		}
	}
	return errs
}

// hostMechanism asserts that the mechanism a host workload exists to
// exercise actually ran.
func hostMechanism(mode core.Mode, c map[string]float64) []string {
	var errs []string
	need := func(name string) {
		if c[name] <= 0 {
			errs = append(errs, name+" is 0")
		}
	}
	switch mode {
	case core.ModeTiered:
		for _, n := range []string{
			"backend.stores.tier0", "backend.stores.tier1", "backend.stores.tier2",
			"backend.demotions.tier0", "backend.demotions.tier1",
			"backend.wb_drained", "backend.promotions",
		} {
			need(n)
		}
	case core.ModeCXL:
		need("place.promotions")
		need("place.demotions")
	}
	return errs
}

// hostCounts reads the per-layer counts from a host's registry.
func hostCounts(snap telemetry.Snapshot) map[string]float64 {
	get := func(name string) float64 { return sumMetric(snap, name, "") }
	c := map[string]float64{
		"sim.ticks":                      get("sim.ticks"),
		"mm.pages_scanned":               get("mm.pages_scanned"),
		"mm.swap_outs":                   get("mm.swap_outs"),
		"mm.swap_ins":                    get("mm.swap_ins"),
		"mm.refaults":                    get("mm.refaults"),
		"mm.file_evictions":              get("mm.file_evictions"),
		"mm.direct_reclaims":             get("mm.direct_reclaims"),
		"mm.fault_coalesced":             get("mm.fault_coalesced"),
		"backend.promotions":             get("backend.chain.promotions"),
		"backend.admit_skips":            get("backend.chain.admit_skips"),
		"backend.wb_drained":             get("backend.wb.drained"),
		"backend.wb_backpressure_stalls": get("backend.wb.backpressure_stalls"),
		"backend.wb_high_water":          get("backend.wb.queue_high_water"),
		"backend.ssd_reads":              get("backend.ssd.reads"),
		"backend.ssd_writes":             get("backend.ssd.writes"),
		"place.promotions":               get("place.promotions"),
		"place.aborts":                   get("place.promo_aborts"),
		"place.demotions":                get("place.demotions"),
		"senpai.runs":                    get("senpai.runs"),
		"senpai.reclaim_decisions":       get("senpai.reclaim_decisions"),
		"senpai.backoff_decisions":       get("senpai.backoff_decisions"),
		"psi.stall_integrations":         get("psi.stall_integrations"),
	}
	for k := 0; k < 3; k++ {
		tier := fmt.Sprintf("%d-", k)
		c[fmt.Sprintf("backend.stores.tier%d", k)] = sumMetric(snap, "backend.tier.stores", tier)
		if k < 2 {
			c[fmt.Sprintf("backend.demotions.tier%d", k)] = sumMetric(snap, "backend.tier.demotions", tier)
		}
	}
	c["mm.reclaim_yield"] = ratio(c["mm.swap_outs"]+c["mm.file_evictions"], c["mm.pages_scanned"])
	c["place.promo_success"] = ratio(c["place.promotions"], c["place.promotions"]+c["place.aborts"])
	c["senpai.reclaim_yield"] = ratio(get("senpai.reclaimed_bytes"), get("senpai.requested_bytes"))
	return c
}

// sumMetric adds up every counter or gauge series called name; a non-empty
// labelPrefix keeps only series with a label value starting with it.
func sumMetric(snap telemetry.Snapshot, name, labelPrefix string) float64 {
	var sum float64
	for _, m := range snap.Metrics {
		if m.Name != name {
			continue
		}
		if labelPrefix != "" {
			match := false
			for _, l := range m.Labels {
				match = match || strings.HasPrefix(l.Value, labelPrefix)
			}
			if !match {
				continue
			}
		}
		sum += m.Value
	}
	return sum
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// hashSnapshot folds a registry snapshot into a digest, leaving out
// sim.tick_wall_us, the registry's only wall-clock series.
func hashSnapshot(h hash.Hash64, snap telemetry.Snapshot) {
	for _, m := range snap.Metrics {
		if m.Name == "sim.tick_wall_us" {
			continue
		}
		fmt.Fprintf(h, "%s%v=%v/%d/%v\n", m.Name, m.Labels, m.Value, m.Count, m.Sum)
	}
}
