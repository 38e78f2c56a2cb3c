package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"time"

	"tmo/internal/experiments"
)

// exhibit is one figure or scorecard that cmd/experiments registers, under
// the same name.
type exhibit struct {
	name string
	run  func(experiments.Config) experiments.Result
}

// figureExhibits are the exhibits the figures workload regenerates, in
// cmd/experiments order: the paper's headline savings figures (Figs. 9 and
// 10) and the co-location scorecard — the slowest exhibits, and the ones the
// ROADMAP's speed-up targets — plus the SSD-catalog, PSI-semantics and
// compression-table exhibits, which are nearly free.
var figureExhibits = []exhibit{
	{"fig5", func(c experiments.Config) experiments.Result { return experiments.Figure5(c) }},
	{"fig7", func(experiments.Config) experiments.Result { return experiments.Figure7() }},
	{"fig9", func(c experiments.Config) experiments.Result { return experiments.Figure9(c) }},
	{"fig10", func(c experiments.Config) experiments.Result { return experiments.Figure10(c) }},
	{"table51", func(c experiments.Config) experiments.Result { return experiments.TableCompression(c) }},
	{"colocation", func(c experiments.Config) experiments.Result { return experiments.Colocation(c) }},
}

// exhibitNames lists the names of exhibits.
func exhibitNames(exs []exhibit) []string {
	names := make([]string, len(exs))
	for i, e := range exs {
		names[i] = e.name
	}
	return names
}

// probeEnv makes the binary exit as soon as main starts. Timing such a run
// measures what every invocation of a command over these packages pays
// before its first line of work: process start-up and package
// initialisation.
const probeEnv = "TMOBENCH_PROBE"

// startupProbes is how many start-ups a figures repetition times; the
// repetition reports their median as its set-up time.
const startupProbes = 5

// startupTime runs the benchmark binary once as a probe and times it.
func startupTime() (time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), probeEnv+"=1")
	start := time.Now()
	err = cmd.Run()
	return time.Since(start), err
}

// runFigures times process start-up (the set-up), then regenerates each
// exhibit at quick scale, checks its shape, and folds its rendered report
// into the output digest.
func runFigures(exs []exhibit, seed uint64, sp *spans) rep {
	r := newRep()
	end := sp.begin("startup")
	var probes []float64
	for i := 0; i < startupProbes; i++ {
		d, err := startupTime()
		if err != nil {
			r.fail("start-up probe: " + err.Error())
		}
		probes = append(probes, d.Seconds())
	}
	end()
	r.setup = time.Duration(median(probes) * float64(time.Second))

	cfg := experiments.Config{Quick: true, Seed: seed}
	digest := fnv.New64a()
	r.outcome = map[string]float64{}
	start := time.Now()
	for _, e := range exs {
		end := sp.begin(e.name)
		t := time.Now()
		res := e.run(cfg)
		r.samples["experiments."+e.name+"_s"] = []float64{time.Since(t).Seconds()}
		end()
		r.op(e.name, checkExhibit(res, r.outcome))
		fmt.Fprintf(digest, "%s\n%s\n", e.name, res.Render())
	}
	r.work = time.Since(start)
	r.digest = digest.Sum64()
	return r
}

// checkExhibit asserts an exhibit's shape — the predicates the root
// benchmarks and the experiments package tests hold it to — and records the
// headline numbers the figures workload reports into out.
func checkExhibit(res experiments.Result, out map[string]float64) []string {
	var errs []string
	expect := func(ok bool, format string, args ...any) {
		if !ok {
			errs = append(errs, fmt.Sprintf(format, args...))
		}
	}
	switch r := res.(type) {
	case experiments.Figure5Result:
		expect(len(r.Rows) == 7, "%d SSD generations, want 7", len(r.Rows))
	case experiments.Figure7Result:
		expect(r.QuarterSome[0] == 12.5, "PSI some in the first quarter = %v, want 12.5", r.QuarterSome[0])
	case experiments.Figure9Result:
		expect(len(r.Rows) == len(experiments.Figure9ZswapApps)+len(experiments.Figure9SSDApps), "%d rows", len(r.Rows))
		var savings float64
		for _, row := range r.Rows {
			expect(row.SavingsFrac >= 0.05 && row.SavingsFrac <= 0.45, "%s savings %.3f outside [0.05, 0.45]", row.App, row.SavingsFrac)
			expect(row.RPSRatio >= 0.95, "%s RPS ratio %.3f", row.App, row.RPSRatio)
			expect(row.OOMEvents == 0, "%s: %d OOM events", row.App, row.OOMEvents)
			savings += row.SavingsFrac
		}
		if len(r.Rows) > 0 {
			out["savings_pct"] = 100 * savings / float64(len(r.Rows))
		}
	case experiments.Figure10Result:
		expect(r.DCTaxSavings >= 0.03, "datacenter tax savings %.3f", r.DCTaxSavings)
		expect(r.MicroTaxSavings >= 0.01, "microservice tax savings %.3f", r.MicroTaxSavings)
		expect(r.DCTaxSavings > r.MicroTaxSavings, "datacenter tax savings must exceed microservice")
	case experiments.TableCompressionResult:
		expect(r.Best.Codec == "zstd" && r.Best.Allocator == "zsmalloc", "best pool %s+%s, want zstd+zsmalloc", r.Best.Codec, r.Best.Allocator)
	case experiments.ColocationResult:
		expect(r.TMOOOMs == 0, "%d OOM events co-located under TMO", r.TMOOOMs)
		expect(r.TMOPressure < r.OffPressure, "TMO pressure %.4f not below %.4f without", r.TMOPressure, r.OffPressure)
		expect(r.TMOEfficiency() >= 0.97, "TMO efficiency %.3f", r.TMOEfficiency())
		out["mem_psi_pct"] = 100 * r.TMOPressure
		out["rps_ratio"] = r.TMOEfficiency()
	}
	return errs
}
