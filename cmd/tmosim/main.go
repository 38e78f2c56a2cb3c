// Command tmosim runs a single simulated server under TMO and reports its
// trajectory: resident memory, swap contents, pressure, throughput, and the
// Senpai controller's actions.
//
// Usage:
//
//	tmosim -app web -mode zswap -duration 30m [-capacity 256] [-device C]
//	       [-report 1m] [-tax] [-seed 1] [-controls] [-tsdb-out series.jsonl]
//
// -mode is one of off, file-only, zswap, ssd, tiered, nvm, cxl. -capacity
// is host DRAM in MiB (default: 2x the app footprint). -controls dumps the
// workload cgroup's control files at the end: the read side of the surface
// the production Senpai daemon reads and writes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"tmo/cmd/internal/cliutil"
	"tmo/internal/backend"
	"tmo/internal/cgroup"
	"tmo/internal/core"
	"tmo/internal/psi"
	"tmo/internal/telemetry"
	"tmo/internal/tsdb"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

func main() {
	appName := flag.String("app", "feed", "workload profile (see -list)")
	list := flag.Bool("list", false, "list catalog profiles and exit")
	modeStr := flag.String("mode", "zswap", "offload mode: off, file-only, zswap, ssd, tiered, nvm, cxl")
	tiersStr := flag.String("tiers", "", `swap tier chain, fastest first, replacing the mode's default layout, e.g. "lz4:2g,zstd:4g,ssd" (a bare ssd gets 4x DRAM)`)
	durStr := flag.String("duration", "30m", "virtual time to simulate")
	capMiB := flag.Int64("capacity", 0, "host DRAM in MiB (0 = 2x app footprint)")
	cxlMiB := flag.Int64("cxl-bytes", 0, "CXL far-node size in MiB for -mode cxl (0 = DRAM-sized)")
	interleave := flag.Float64("place-interleave", 0, "static interleave: place this fraction of new pages far and disable migration (0 = TPP loop)")
	device := flag.String("device", "C", "host SSD model (A-G)")
	reportStr := flag.String("report", "2m", "reporting interval (virtual time)")
	withTax := flag.Bool("tax", false, "co-schedule tax sidecar containers")
	seed := flag.Uint64("seed", 1, "simulation seed")
	controls := flag.Bool("controls", false, "dump cgroup control files at the end")
	traceN := flag.Int("trace", 0, "print the last N records of the host's decision stream at the end")
	chaosScript := flag.String("chaos", "", `fault-injection script, e.g. "t=2m ssd-slow x4 for=5m; t=10m load x2" (see internal/chaos)`)
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file (go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile taken after the simulation to this file")
	metricsOut := flag.String("metrics-out", "", "write the telemetry registry to this file in Prometheus text format")
	tsdbOut := flag.String("tsdb-out", "", "scrape telemetry each report interval into a time-series file (.csv for CSV, else JSON Lines)")
	traceOut := flag.String("trace-out", "", "write the decision stream to this file in Chrome trace_event JSON (open in chrome://tracing or Perfetto)")
	timelineOut := flag.String("timeline-out", "", "write the decision stream to this file as JSON Lines")
	flag.Parse()

	if *list {
		for _, n := range workload.CatalogNames() {
			p := workload.MustCatalog(n)
			fmt.Printf("%-18s %4d MiB  anon %.0f%%  compress %.1fx\n",
				n, p.FootprintBytes/workload.MiB, 100*p.AnonFraction, p.Compressibility)
		}
		return
	}

	mode := cliutil.MustMode("tmosim", *modeStr)
	dur := cliutil.MustDuration("tmosim", "duration", *durStr)
	report := cliutil.MustDuration("tmosim", "report", *reportStr)
	if err := checkFlags(mode, report, *capMiB, *device, *tiersStr, *cxlMiB, *interleave); err != nil {
		fatal(err)
	}
	prof, err := workload.Catalog(*appName)
	if err != nil {
		fatal(err)
	}
	capacity := *capMiB * workload.MiB
	if capacity == 0 {
		capacity = 2 * prof.FootprintBytes
	}

	var tiers []backend.TierSpec
	if *tiersStr != "" {
		tiers = cliutil.MustTierSpec("tmosim", *tiersStr)
	}
	sys := core.New(core.Options{
		Mode:           mode,
		CapacityBytes:  capacity,
		CXLBytes:       *cxlMiB * workload.MiB,
		DeviceModel:    *device,
		InterleaveFrac: *interleave,
		Tiers:          tiers,
		Seed:           *seed,
	})
	app := sys.AddProfile(prof, cgroup.Workload)
	if *withTax {
		sys.AddTax()
	}
	if *chaosScript != "" {
		if err := sys.Chaos().AddScript(*chaosScript); err != nil {
			fatal(err)
		}
	}

	fmt.Printf("tmosim: %s on %s, %d MiB DRAM, SSD %s, %s\n\n",
		prof.Name, mode, capacity/workload.MiB, *device, dur)
	fmt.Printf("%-8s %-10s %-10s %-10s %-9s %-9s %-9s %-8s\n",
		"time", "resident", "pool", "swapped", "mem-psi", "io-psi", "rps", "swapins/s")

	// Profiling brackets the simulation loop only, so profiles measure the
	// hot path rather than setup or report formatting.
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(fmt.Errorf("cpuprofile: %w", err))
		}
	}

	// -tsdb-out turns the report loop into a scrape loop: the same scraper
	// the rollout controller runs against fleet hosts samples this host's
	// registry once per report interval.
	var scraper *tsdb.Scraper
	scrapeBase := []telemetry.Label{
		{Key: "host", Value: prof.Name},
		{Key: "device", Value: *device},
	}
	if *tsdbOut != "" {
		scraper = &tsdb.Scraper{DB: tsdb.New(tsdb.Config{})}
	}

	var lastCompleted, lastSwapIns int64
	var memPSI, ioPSI psi.Baseline
	step := report
	for elapsed := vclock.Duration(0); elapsed < dur; elapsed += step {
		sys.Run(step)
		now := sys.Server.Now()
		if scraper != nil {
			scraper.ScrapeSnapshot(now, scrapeBase, sys.TelemetrySnapshot())
		}
		m := sys.Metrics()
		tr := app.Group.PSI()
		tr.Sync(now)
		st := app.Group.MM().Stat()
		completed := app.Completed()
		fmt.Printf("%-8s %7.1fMiB %7.1fMiB %7.1fMiB %8.4f%% %8.4f%% %8.0f %8.1f\n",
			now.String(),
			float64(m.ResidentBytes)/workload.MiB,
			float64(m.PoolBytes)/workload.MiB,
			float64(m.SwappedBytes)/workload.MiB,
			100*memPSI.Read(tr.Total(psi.Memory, psi.Some), step),
			100*ioPSI.Read(tr.Total(psi.IO, psi.Some), step),
			float64(completed-lastCompleted)/step.Seconds(),
			float64(st.SwapIns-lastSwapIns)/step.Seconds(),
		)
		lastCompleted, lastSwapIns = completed, st.SwapIns
	}

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
		fmt.Printf("\nwrote CPU profile to %s\n", *cpuprofile)
	}
	if *memprofile != "" {
		runtime.GC() // surface live retention, not garbage awaiting collection
		writeFile(*memprofile, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		})
		fmt.Printf("wrote heap profile to %s\n", *memprofile)
	}

	m := sys.Metrics()
	fmt.Printf("\nfinal: resident %.1f MiB of %.0f MiB, pool %.1f MiB, swapped %.1f MiB, device writes %.1f MiB, OOM events %d\n",
		float64(m.ResidentBytes)/workload.MiB, float64(m.CapacityBytes)/workload.MiB,
		float64(m.PoolBytes)/workload.MiB, float64(m.SwappedBytes)/workload.MiB,
		float64(m.DeviceWrittenBytes)/workload.MiB, m.OOMEvents)
	lat, _ := sys.TelemetrySnapshot().Get("workload.request_latency_us", telemetry.Label{Key: "app", Value: app.Profile.Name})
	fmt.Printf("request latency: p50 %v, p99 %v\n",
		vclock.Duration(lat.Quantile(0.50)), vclock.Duration(lat.Quantile(0.99)))
	if sys.Place != nil {
		st := sys.Place.Stats()
		fmt.Printf("placement: %.1f MiB far, %d promotions, %d aborts (%v stall), %.1f MiB demoted\n",
			float64(m.FarBytes)/workload.MiB, st.Promotions, st.Aborts(), st.AbortStall,
			float64(st.DemotedBytes)/workload.MiB)
	}

	if *controls {
		fmt.Println("\ncgroup control files for", app.Group.Path())
		for _, f := range []string{"memory.current", "memory.max", "memory.low", "memory.events", "memory.stat", "memory.pressure", "io.pressure"} {
			out, err := app.Group.ReadControl(f)
			if err != nil {
				fatal(err)
			}
			fmt.Printf("--- %s ---\n%s", f, out)
		}
	}

	if *traceN > 0 {
		fmt.Printf("\ndecision trace (last %d of %d records, %d dropped):\n%s",
			min(*traceN, sys.Trace.Len()), sys.Trace.Len(), sys.Trace.Dropped(), sys.Trace.Tail(*traceN))
	}

	if *metricsOut != "" {
		writeFile(*metricsOut, sys.TelemetrySnapshot().WritePrometheus)
		fmt.Printf("\nwrote metrics to %s\n", *metricsOut)
	}
	if scraper != nil {
		if err := cliutil.ExportSeries(*tsdbOut, scraper.DB); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d time series (%d samples) to %s\n",
			scraper.DB.NumSeries(), scraper.DB.NumSamples(), *tsdbOut)
	}
	if *traceOut != "" {
		writeFile(*traceOut, sys.Trace.WriteChromeTrace)
		fmt.Printf("wrote Chrome trace to %s (%d records, %d dropped)\n",
			*traceOut, sys.Trace.Len(), sys.Trace.Dropped())
	}
	if *timelineOut != "" {
		writeFile(*timelineOut, sys.Trace.WriteJSONL)
		fmt.Printf("wrote JSONL timeline to %s\n", *timelineOut)
	}
}

// writeFile creates path and streams write into it, exiting on any error.
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := write(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}

// checkFlags rejects the flag values no simulation can run with: a
// reporting interval must advance time, a capacity may be left at 0
// (twice the app's footprint) but not set negative, and the SSD model must
// be in the catalog. It also rejects the mode-specific flags a mode would
// ignore: -tiers outside the swap modes, and -cxl-bytes or
// -place-interleave outside cxl mode, where they must be a non-negative
// size and a fraction in [0, 1].
func checkFlags(mode core.Mode, report vclock.Duration, capMiB int64, device, tiers string, cxlMiB int64, interleave float64) error {
	if report <= 0 {
		return fmt.Errorf("bad -report: interval must be positive, got %v", report)
	}
	if capMiB < 0 {
		return fmt.Errorf("bad -capacity: must not be negative, got %d MiB", capMiB)
	}
	if _, err := backend.DeviceByModel(device); device != "" && err != nil {
		return fmt.Errorf("bad -device: %w", err)
	}
	if tiers != "" && (mode == core.ModeOff || mode == core.ModeFileOnly) {
		return fmt.Errorf("-tiers requires a swap mode (got %s)", mode)
	}
	if cxlMiB < 0 {
		return fmt.Errorf("bad -cxl-bytes: must not be negative, got %d MiB", cxlMiB)
	}
	if !(interleave >= 0 && interleave <= 1) {
		return fmt.Errorf("bad -place-interleave: must be a fraction in [0, 1], got %v", interleave)
	}
	if cxlMiB != 0 && mode != core.ModeCXL {
		return fmt.Errorf("-cxl-bytes requires -mode cxl (got %s)", mode)
	}
	if interleave != 0 && mode != core.ModeCXL {
		return fmt.Errorf("-place-interleave requires -mode cxl (got %s)", mode)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tmosim:", err)
	os.Exit(1)
}
