// Command psimon is the observability side of TMO (§3.2.4, §5.1): it runs a
// host scenario and periodically renders the cgroup tree with each group's
// memory composition and PSI pressure — the view that let operators
// attribute memory and diagnose SLO violations per container, long before
// any offloading was enabled.
//
// Usage:
//
//	psimon [-apps feed,cache-a] [-tax] [-mode off|file-only|zswap|ssd|tiered|nvm|cxl] [-capacity 512]
//	       [-duration 5m] [-report 1m] [-seed 1]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"tmo/cmd/internal/cliutil"
	"tmo/internal/cgroup"
	"tmo/internal/core"
	"tmo/internal/mm"
	"tmo/internal/psi"
	"tmo/internal/textplot"
	"tmo/internal/workload"
)

func main() {
	apps := flag.String("apps", "feed,cache-a", "comma-separated catalog workloads")
	withTax := flag.Bool("tax", true, "co-schedule tax sidecars")
	modeStr := flag.String("mode", "off", "offload mode: off, file-only, zswap, ssd, tiered, nvm, cxl")
	capMiB := flag.Int64("capacity", 0, "host DRAM in MiB (0 = sized to fit)")
	durStr := flag.String("duration", "5m", "virtual time to simulate")
	reportStr := flag.String("report", "1m", "reporting interval")
	seed := flag.Uint64("seed", 1, "seed")
	flag.Parse()

	mode := cliutil.MustMode("psimon", *modeStr)
	dur := cliutil.MustDuration("psimon", "duration", *durStr)
	report := cliutil.MustDuration("psimon", "report", *reportStr)
	if report <= 0 {
		cliutil.Fatal("psimon", fmt.Errorf("bad -report: interval must be positive, got %v", *reportStr))
	}

	var profiles []workload.Profile
	var total int64
	for _, name := range strings.Split(*apps, ",") {
		p, err := workload.Catalog(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintln(os.Stderr, "psimon:", err)
			os.Exit(1)
		}
		profiles = append(profiles, p)
		total += p.FootprintBytes
	}
	capacity := *capMiB * workload.MiB
	if capacity == 0 {
		capacity = total * 3 / 2
	}

	sys := core.New(core.Options{Mode: mode, CapacityBytes: capacity, Seed: *seed})
	for _, p := range profiles {
		sys.AddProfile(p, cgroup.Workload)
	}
	if *withTax {
		sys.AddTax()
	}

	steps := int(dur / report)
	if steps < 1 {
		steps = 1
	}
	for i := 0; i < steps; i++ {
		sys.Run(report)
		now := sys.Server.Now()
		fmt.Printf("=== t=%v  host: %s ===\n", now, hostLine(sys))
		sys.Server.Hierarchy().Root().Walk(func(g *cgroup.Group) {
			depth := strings.Count(g.Path(), "/")
			if g.Path() == "/" {
				depth = 0
			}
			tr := g.PSI()
			tr.Sync(now)
			tr.UpdateAverages(now)
			fmt.Printf("%-28s %-16s anon=%7.1fMiB file=%7.1fMiB  mem.some10=%5.2f%% io.some10=%5.2f%%\n",
				strings.Repeat("  ", depth)+displayName(g),
				g.Kind().String(),
				float64(g.MM().ResidentBytesOf(mm.Anon))/workload.MiB,
				float64(g.MM().ResidentBytesOf(mm.File))/workload.MiB,
				100*tr.Avg(psi.Memory, psi.Some, psi.Avg10),
				100*tr.Avg(psi.IO, psi.Some, psi.Avg10))
		})
		fmt.Println()
	}

	fmt.Print(telemetrySummary(sys))
}

// telemetrySummary renders the registry-backed end-of-run view: root stall
// time by resource and the latency distributions behind it.
func telemetrySummary(sys *core.System) string {
	snap := sys.TelemetrySnapshot()
	var b strings.Builder

	var labels []string
	var values []float64
	for _, res := range []string{"memory", "io", "cpu"} {
		for _, kind := range []string{"some", "full"} {
			if m, ok := snap.Get(fmt.Sprintf("psi.%s.%s_total_us", res, kind)); ok {
				labels = append(labels, res+" "+kind)
				values = append(values, m.Value/1000)
			}
		}
	}
	if len(labels) > 0 {
		b.WriteString(textplot.Bar("root stall time by resource (ms, whole run)", labels, values, 40))
		b.WriteString("\n")
	}

	rows := [][]string{{"distribution", "count", "p50", "p90", "p99", "max"}}
	for _, m := range snap.Metrics {
		if m.Kind != "histogram" || m.Count == 0 {
			continue
		}
		name := m.Name
		for _, l := range m.Labels {
			name += fmt.Sprintf(" %s=%s", l.Key, l.Value)
		}
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%d", m.Count),
			fmt.Sprintf("%.4g", m.Quantile(0.50)),
			fmt.Sprintf("%.4g", m.Quantile(0.90)),
			fmt.Sprintf("%.4g", m.Quantile(0.99)),
			fmt.Sprintf("%.4g", m.Quantile(1)),
		})
	}
	if len(rows) > 1 {
		b.WriteString("latency and size distributions (registry histograms, µs unless named otherwise; compress_ratio in hundredths)\n")
		b.WriteString(textplot.Table(rows))
	}
	return b.String()
}

func displayName(g *cgroup.Group) string {
	if g.Path() == "/" {
		return "/"
	}
	return g.Name()
}

func hostLine(sys *core.System) string {
	m := sys.Metrics()
	return fmt.Sprintf("resident %.1f/%.0f MiB, pool %.1f MiB, free %.1f MiB",
		float64(m.ResidentBytes)/workload.MiB, float64(m.CapacityBytes)/workload.MiB,
		float64(m.PoolBytes)/workload.MiB, float64(m.FreeBytes)/workload.MiB)
}
