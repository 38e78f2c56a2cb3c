// Command benchjson runs the repository's benchmark suites — the root
// figure benchmarks that regenerate the paper's evaluation plus the
// hot-path microbenchmarks in internal/{mm,psi,backend,sim,workload} —
// and writes the parsed results to a single JSON file (BENCH_core.json via
// `make bench`). The file pins the perf trajectory: every benchmark's ns/op,
// B/op, and allocs/op, plus each figure's headline metrics, so any PR can
// diff its numbers against the committed baseline.
//
// Usage:
//
//	go run ./cmd/benchjson [-out BENCH_core.json] [-figures 1x] [-micro 20000x] [-skip-figures]
//	go run ./cmd/benchjson -out /tmp/fresh.json -compare BENCH_core.json
//
// Times are wall-clock measurements and move with the host, so they are
// recorded but never gated on; allocs/op is near-deterministic and is the
// one number regressions are gated on. With -compare, the fresh run is
// additionally diffed against a committed baseline: any benchmark whose
// allocs/op grew past a half-allocation (plus a 1% epsilon for the
// pool-scheduling jitter of the concurrent figure benchmarks) fails the run
// with exit status 1 — `make bench-check` wires this into CI.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// Benchmark is one parsed benchmark result.
type Benchmark struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// Metrics carries the benchmark's custom units — the headline figure
	// numbers (savings percentages, RPS ratios, vsec/sec, ...).
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the BENCH_core.json document.
type Report struct {
	Schema     int         `json:"schema"`
	Tool       string      `json:"tool"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

// suite is one `go test -bench` invocation.
type suite struct {
	pkg         string // package path passed to go test
	bench, skip string // -bench and (if set) -skip patterns
	benchtime   string
}

// hostlessFigures are the figure benchmarks that build no host and take
// microseconds to milliseconds. Run once, their allocs/op also counts the
// few objects the test binary's own goroutines allocate meanwhile, so they
// run a fixed 100 iterations that spread those over the count.
const hostlessFigures = "^Benchmark(Figure1CostTrends|Figure5SSDCatalog|Figure7PSISemantics|TableCompression)$"

func main() {
	out := flag.String("out", "BENCH_core.json", "output file")
	figures := flag.String("figures", "1x", "benchtime for the root figure benchmarks that build hosts (each iteration is a full quick-scale experiment)")
	micro := flag.String("micro", "20000x", "benchtime for the hot-path microbenchmarks")
	skipFigures := flag.Bool("skip-figures", false, "run only the microbenchmark suites")
	compare := flag.String("compare", "", "baseline BENCH_core.json to diff the fresh run against; exit 1 on regression")
	noRun := flag.Bool("no-run", false, "skip running the suites; treat -out as an existing report (for comparing two files)")
	flag.Parse()

	if *noRun {
		if *compare == "" {
			fmt.Fprintln(os.Stderr, "benchjson: -no-run requires -compare")
			os.Exit(2)
		}
		fresh, err := loadReport(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		runCompare(fresh, *compare)
		return
	}

	suites := []suite{
		{pkg: "./internal/mm", bench: ".", benchtime: *micro},
		{pkg: "./internal/psi", bench: ".", benchtime: *micro},
		{pkg: "./internal/backend", bench: ".", benchtime: *micro},
		{pkg: "./internal/sim", bench: ".", benchtime: *micro},
		{pkg: "./internal/workload", bench: ".", benchtime: *micro},
	}
	if !*skipFigures {
		suites = append([]suite{
			{pkg: ".", bench: ".", skip: hostlessFigures, benchtime: *figures},
			{pkg: ".", bench: hostlessFigures, benchtime: "100x"},
		}, suites...)
	}

	rep := Report{
		Schema:    1,
		Tool:      "cmd/benchjson (make bench)",
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	for _, s := range suites {
		bs, err := runSuite(s)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		rep.Benchmarks = append(rep.Benchmarks, bs...)
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(rep.Benchmarks), *out)

	if *compare != "" {
		runCompare(rep, *compare)
	}
}

// runCompare diffs fresh against the baseline file and exits nonzero on
// any regression.
func runCompare(fresh Report, baselinePath string) {
	base, err := loadReport(baselinePath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if regressions := compareReports(base, fresh); len(regressions) > 0 {
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION:", r)
		}
		os.Exit(1)
	}
	fmt.Printf("benchjson: no allocs/op regressions vs %s\n", baselinePath)
}

// loadReport reads a previously written BENCH_core.json.
func loadReport(path string) (Report, error) {
	var rep Report
	buf, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(buf, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// compareReports diffs fresh against base: every benchmark gates on
// allocs/op growing by half an allocation or more — enough to catch a new
// per-op allocation while ignoring the fractional drift amortised
// bookkeeping shows across different iteration counts. A benchmark missing
// from either side is skipped: renames and additions are not regressions,
// and deletions are caught in review.
func compareReports(base, fresh Report) []string {
	baseline := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		baseline[b.Package+"."+b.Name] = b
	}
	var regressions []string
	for _, b := range fresh.Benchmarks {
		prev, ok := baseline[b.Package+"."+b.Name]
		if !ok {
			continue
		}
		// Half an allocation catches any new per-op allocation in the
		// single-goroutine microbenchmarks; the figure benchmarks drive
		// concurrent worker pools whose sync.Pool hit rates move a few
		// allocations in tens of thousands run to run, so they also get a
		// small relative epsilon.
		allocSlack := 0.5 + prev.AllocsPerOp*1e-2
		if b.AllocsPerOp >= prev.AllocsPerOp+allocSlack {
			regressions = append(regressions, fmt.Sprintf(
				"%s %s: %.2f allocs/op vs baseline %.2f",
				b.Package, b.Name, b.AllocsPerOp, prev.AllocsPerOp))
		}
	}
	return regressions
}

// runSuite executes one go test -bench run and parses its output.
func runSuite(s suite) ([]Benchmark, error) {
	args := []string{"test", "-run", "^$", "-bench", s.bench, "-benchmem", "-benchtime", s.benchtime}
	if s.skip != "" {
		args = append(args, "-skip", s.skip)
	}
	args = append(args, s.pkg)
	fmt.Printf("benchjson: go %s\n", strings.Join(args, " "))
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s: %w\n%s", s.pkg, err, outBytes)
	}
	return parseBench(string(outBytes))
}

// parseBench extracts benchmark result lines from go test -bench output.
// A result line is "Benchmark<Name>[-P] <iters> {<value> <unit>}...".
func parseBench(out string) ([]Benchmark, error) {
	var res []Benchmark
	pkg := ""
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue // e.g. "BenchmarkX --- FAIL"
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			// Strip the GOMAXPROCS suffix go test appends.
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		b := Benchmark{Package: pkg, Name: name, Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bad benchmark value in %q", line)
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		res = append(res, b)
	}
	if len(res) == 0 {
		return nil, fmt.Errorf("no benchmark results parsed:\n%s", out)
	}
	return res, nil
}
