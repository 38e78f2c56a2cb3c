// Command tmobench is the repository's end-to-end benchmark. It runs one
// workload for a wall-clock budget by repeating a fixed amount of work —
// one host lifetime, one rollout campaign, or one pass over a set of paper
// exhibits — and reports work time and set-up time (in reference seconds,
// corrected for the machine's speed at the time; see calib.go), peak memory
// and the simulated outcomes, after checking that every repetition was
// correct and produced identical simulated output.
//
// Usage:
//
//	tmobench --workload host-chain --seed 1 --seconds 20 --trace 0
//	tmobench --workload all --seed 1
//
// --trace 1 spends half the budget untraced and half under the CPU profiler
// with harness spans recorded, then prints the per-layer metrics instead of
// the end-to-end ones; the profile and a Chrome trace land in --trace-dir.
// The last line of standard output is always one JSON object: correct,
// attempted, failed and metrics. cmd/tmobench/run.sh builds the command
// from a checkout and runs it; README.md describes the workloads and
// metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"tmo/internal/core"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// procs pins the benchmark's parallelism, so results compare across
// machines: GOMAXPROCS and every worker pool use at most two CPUs.
const procs = 2

// sizes fixes how much work one repetition of each workload does.
type sizes struct {
	HostMinutes   int      `json:"host_virtual_minutes"`
	CampaignHosts int      `json:"campaign_hosts"`
	Exhibits      []string `json:"exhibits"`
}

var defaultSizes = sizes{
	HostMinutes:   30,
	CampaignHosts: 100_000,
	Exhibits:      exhibitNames(figureExhibits),
}

// workload is one named benchmark input; run performs one repetition.
type workload struct {
	name string
	run  func(seed uint64, sz sizes, sp *spans) rep
}

var workloads = []workload{
	{"host-chain", func(seed uint64, sz sizes, sp *spans) rep {
		return runHost(core.ModeTiered, sz.HostMinutes, seed, sp)
	}},
	{"host-cxl", func(seed uint64, sz sizes, sp *spans) rep {
		return runHost(core.ModeCXL, sz.HostMinutes, seed, sp)
	}},
	{"fleet-campaign", func(seed uint64, sz sizes, sp *spans) rep {
		return runCampaign(sz.CampaignHosts, seed, sp)
	}},
	{"figures", func(seed uint64, sz sizes, sp *spans) rep {
		var exs []exhibit
		for _, e := range figureExhibits {
			if slices.Contains(sz.Exhibits, e.name) {
				exs = append(exs, e)
			}
		}
		return runFigures(exs, seed, sp)
	}},
}

// rep is the outcome of one repetition of a workload.
type rep struct {
	// setup and work are the wall-clock times of the set-up and of the
	// measured work.
	setup, work time.Duration
	// ops counts the checked operations (checkpoints, campaigns, exhibits);
	// failed counts those whose checks failed. errs describes every failure,
	// including end-of-run assertions.
	ops, failed int
	errs        []string
	// outcome holds the simulated end-to-end metrics and counts the
	// deterministic per-layer counts; both repeat exactly for a seed, as
	// does digest, a hash of the simulated output.
	outcome map[string]float64
	counts  map[string]float64
	digest  uint64
	// virtual is the virtual time simulated, in seconds (host workloads).
	virtual float64
	// samples holds wall-clock per-layer timings by name.
	samples map[string][]float64
	mem     memDelta
	// speed is the machine's speed factor around the repetition: the mean
	// of the calibration times before and after it over calibrationSeconds.
	speed float64
}

func newRep() rep {
	return rep{samples: map[string][]float64{}, counts: map[string]float64{}}
}

// op records one checked operation and its failures, if any.
func (r *rep) op(what string, errs []string) {
	r.ops++
	if len(errs) > 0 {
		r.failed++
		r.errs = append(r.errs, what+": "+strings.Join(errs, "; "))
	}
}

// fail records failures outside any operation.
func (r *rep) fail(errs ...string) { r.errs = append(r.errs, errs...) }

// memDelta is the Go runtime's allocation and GC work during a repetition.
type memDelta struct {
	allocMiB, mallocs, gcCycles, gcPauseMs float64
}

// spans records harness spans on the wall clock when tracing; a nil
// *spans records nothing.
type spans struct {
	rec *trace.Recorder
	t0  time.Time
}

func newSpans() *spans { return &spans{rec: trace.NewRecorder(1 << 18), t0: time.Now()} }

// begin opens a span and returns the function that ends it.
func (s *spans) begin(name string) func() {
	if s == nil {
		return func() {}
	}
	sp := s.rec.Begin(s.now(), "bench", name)
	return func() { sp.End(s.now()) }
}

func (s *spans) now() vclock.Time { return vclock.Time(time.Since(s.t0) / time.Microsecond) }

// measurement is every repetition of one run.
type measurement struct {
	plain, traced []rep
	profile       []byte
	spans         *spans
	peakRSSMiB    float64
}

// calibrator times the calibration program; tests substitute a constant.
type calibrator func() (float64, error)

// measure repeats the workload until the budget of repetition time is
// spent, at least once, calibrating the machine's speed before the first
// repetition and after each one. A traced run spends the first half of the
// budget untraced and the second half with the CPU profiler and harness
// spans on.
func measure(w workload, seed uint64, sz sizes, budget time.Duration, traced bool, calib calibrator) (measurement, error) {
	var m measurement
	last, err := calib()
	if err != nil {
		return m, err
	}
	var spent time.Duration
	repeat := func(reps []rep, sp *spans, until time.Duration) ([]rep, error) {
		for len(reps) == 0 || spent < until {
			start := time.Now()
			r := runRep(w, seed, sz, sp)
			spent += time.Since(start)
			next, err := calib()
			if err != nil {
				return reps, err
			}
			r.speed = (last + next) / 2 / calibrationSeconds
			last = next
			reps = append(reps, r)
		}
		return reps, nil
	}
	plainBudget := budget
	if traced {
		plainBudget = budget / 2
	}
	if m.plain, err = repeat(nil, nil, plainBudget); err != nil {
		return m, err
	}
	m.peakRSSMiB = peakRSSMiB()
	if !traced {
		return m, nil
	}
	m.spans = newSpans()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return m, fmt.Errorf("start CPU profile: %w", err)
	}
	m.traced, err = repeat(nil, m.spans, budget)
	pprof.StopCPUProfile()
	m.profile = prof.Bytes()
	return m, err
}

// runRep runs one repetition from a freshly collected heap and records the
// runtime's allocation work during it.
func runRep(w workload, seed uint64, sz sizes, sp *spans) rep {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := w.run(seed, sz, sp)
	runtime.ReadMemStats(&after)
	r.mem = memDelta{
		allocMiB:  float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20),
		mallocs:   float64(after.Mallocs - before.Mallocs),
		gcCycles:  float64(after.NumGC - before.NumGC),
		gcPauseMs: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6,
	}
	return r
}

// peakRSSMiB is the process's peak resident set so far.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// refWork and refSetup are the repetition's times in reference seconds.
func (r rep) refWork() float64  { return r.work.Seconds() / r.speed }
func (r rep) refSetup() float64 { return r.setup.Seconds() / r.speed }

// medianOf is the median of f over the repetitions.
func medianOf(reps []rep, f func(rep) float64) float64 {
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return median(xs)
}

// failures lists every repetition's failures, plus any repetition whose
// simulated output differs from the first one's.
func (m measurement) failures() []string {
	all := append(slices.Clone(m.plain), m.traced...)
	var out []string
	for i, r := range all {
		for _, e := range r.errs {
			out = append(out, fmt.Sprintf("repetition %d: %s", i+1, e))
		}
		if i == 0 {
			continue
		}
		switch {
		case r.digest != all[0].digest:
			out = append(out, fmt.Sprintf("repetition %d: output digest %016x differs from %016x", i+1, r.digest, all[0].digest))
		case !maps.Equal(r.outcome, all[0].outcome):
			out = append(out, fmt.Sprintf("repetition %d: simulated outcome %v differs from %v", i+1, r.outcome, all[0].outcome))
		case !maps.Equal(r.counts, all[0].counts):
			out = append(out, fmt.Sprintf("repetition %d: per-layer counts differ from repetition 1", i+1))
		}
	}
	return out
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics are what a user of the simulator sees, in report order.
var endToEndMetrics = []struct{ name, unit string }{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mib", "MiB"},
	{"savings_pct", "%"},
	{"mem_psi_pct", "%"},
	{"rps_ratio", "ratio"},
}

// endToEnd reports the untraced repetitions: median work and set-up times
// in reference seconds, peak memory, and the simulated outcome.
func (m measurement) endToEnd() map[string]metric {
	vals := map[string]float64{
		"wall_s":       medianOf(m.plain, rep.refWork),
		"setup_s":      medianOf(m.plain, rep.refSetup),
		"peak_rss_mib": m.peakRSSMiB,
	}
	maps.Copy(vals, m.plain[0].outcome)
	out := map[string]metric{}
	for _, e := range endToEndMetrics {
		out[e.name] = metric{vals[e.name], e.unit}
	}
	return out
}

// perLayerMetrics is the per-layer report, in order: each layer's work
// counts and timings, then every layer's share of CPU self time.
var perLayerMetrics = []struct{ name, unit string }{
	{"sim.ticks", "count"},
	{"sim.vsec_per_s", "1/s"},
	{"sim.tick_p50_us", "us"},
	{"sim.tick_p99_us", "us"},
	{"sim.tick_tail_us", "us"},
	{"sim.tick_tail_pct", "%"},
	{"sim.tick_samples", "count"},
	{"workload.requests", "count"},
	{"mm.pages_scanned", "count"},
	{"mm.swap_outs", "count"},
	{"mm.swap_ins", "count"},
	{"mm.refaults", "count"},
	{"mm.file_evictions", "count"},
	{"mm.direct_reclaims", "count"},
	{"mm.fault_coalesced", "count"},
	{"mm.reclaim_yield", "ratio"},
	{"backend.stores.tier0", "count"},
	{"backend.stores.tier1", "count"},
	{"backend.stores.tier2", "count"},
	{"backend.demotions.tier0", "count"},
	{"backend.demotions.tier1", "count"},
	{"backend.promotions", "count"},
	{"backend.admit_skips", "count"},
	{"backend.wb_drained", "count"},
	{"backend.wb_backpressure_stalls", "count"},
	{"backend.wb_high_water", "count"},
	{"backend.ssd_reads", "count"},
	{"backend.ssd_writes", "count"},
	{"place.promotions", "count"},
	{"place.aborts", "count"},
	{"place.demotions", "count"},
	{"place.promo_success", "ratio"},
	{"senpai.runs", "count"},
	{"senpai.reclaim_decisions", "count"},
	{"senpai.backoff_decisions", "count"},
	{"senpai.reclaim_yield", "ratio"},
	{"psi.stall_integrations", "count"},
	{"telemetry.snapshot_p50_us", "us"},
	{"tsdb.scrape_p50_us", "us"},
	{"tsdb.series", "count"},
	{"tsdb.samples", "count"},
	{"slo.burn_alerts", "count"},
	{"twin.calibrate_s", "s"},
	{"twin.gate_s", "s"},
	{"rollout.windows", "count"},
	{"rollout.host_windows", "count"},
	{"rollout.host_windows_per_s", "1/s"},
	{"rollout.guardrail_trips", "count"},
	{"rollout.candidate_drops", "count"},
	{"experiments.fig5_s", "s"},
	{"experiments.fig7_s", "s"},
	{"experiments.fig9_s", "s"},
	{"experiments.fig10_s", "s"},
	{"experiments.table51_s", "s"},
	{"experiments.colocation_s", "s"},
	{"runtime.alloc_mib", "MiB"},
	{"runtime.mallocs", "count"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.wall_raw_s", "s"},
	{"bench.speed_factor", "ratio"},
	{"sim.cpu_pct", "%"},
	{"workload.cpu_pct", "%"},
	{"mm.cpu_pct", "%"},
	{"backend.cpu_pct", "%"},
	{"place.cpu_pct", "%"},
	{"senpai.cpu_pct", "%"},
	{"psi.cpu_pct", "%"},
	{"cgroup.cpu_pct", "%"},
	{"core.cpu_pct", "%"},
	{"telemetry.cpu_pct", "%"},
	{"tsdb.cpu_pct", "%"},
	{"slo.cpu_pct", "%"},
	{"trace.cpu_pct", "%"},
	{"twin.cpu_pct", "%"},
	{"rollout.cpu_pct", "%"},
	{"fleet.cpu_pct", "%"},
	{"experiments.cpu_pct", "%"},
	{"chaos.cpu_pct", "%"},
	{"dist.cpu_pct", "%"},
	{"metrics.cpu_pct", "%"},
	{"vclock.cpu_pct", "%"},
	{"textplot.cpu_pct", "%"},
	{"runtime.cpu_pct", "%"},
	{"stdlib.cpu_pct", "%"},
	{"bench.cpu_pct", "%"},
	{"other.cpu_pct", "%"},
}

// perLayer reports the traced repetitions: counts, timing medians and tails,
// runtime work per repetition, CPU self-time shares by layer, and the
// tracing overhead against the untraced repetitions.
func (m measurement) perLayer() (map[string]metric, error) {
	vals := maps.Clone(m.traced[0].counts)
	pooled := map[string][]float64{}
	for _, r := range m.traced {
		for k, v := range r.samples {
			pooled[k] = append(pooled[k], v...)
		}
	}
	for k, v := range pooled {
		if strings.HasSuffix(k, "_s") {
			vals[k] = median(v)
		}
	}
	if ticks := pooled["sim.tick_us"]; len(ticks) > 0 {
		vals["sim.tick_p50_us"] = median(ticks)
		vals["sim.tick_p99_us"] = quantile(ticks, 0.99)
		vals["sim.tick_tail_us"], vals["sim.tick_tail_pct"], _ = tail(ticks)
		vals["sim.tick_samples"] = float64(len(ticks))
	}
	vals["telemetry.snapshot_p50_us"] = median(pooled["telemetry.snapshot_us"])
	vals["tsdb.scrape_p50_us"] = median(pooled["tsdb.scrape_us"])
	work := medianOf(m.plain, rep.refWork)
	vals["sim.vsec_per_s"] = ratio(m.traced[0].virtual, work)
	vals["rollout.host_windows_per_s"] = ratio(vals["rollout.host_windows"], work)
	vals["runtime.alloc_mib"] = medianOf(m.traced, func(r rep) float64 { return r.mem.allocMiB })
	vals["runtime.mallocs"] = medianOf(m.traced, func(r rep) float64 { return r.mem.mallocs })
	vals["runtime.gc_cycles"] = medianOf(m.traced, func(r rep) float64 { return r.mem.gcCycles })
	vals["runtime.gc_pause_ms"] = medianOf(m.traced, func(r rep) float64 { return r.mem.gcPauseMs })
	vals["bench.trace_overhead_pct"] = 100 * (ratio(medianOf(m.traced, rep.refWork), work) - 1)
	vals["bench.wall_raw_s"] = medianOf(m.plain, func(r rep) float64 { return r.work.Seconds() })
	vals["bench.speed_factor"] = medianOf(m.plain, func(r rep) float64 { return r.speed })

	byPkg, err := packageSelfTime(m.profile)
	if err != nil {
		return nil, err
	}
	out := map[string]metric{}
	for _, p := range perLayerMetrics {
		out[p.name] = metric{vals[p.name], p.unit}
	}
	for layer, share := range layerShares(byPkg) {
		name := layer + ".cpu_pct"
		if _, ok := out[name]; !ok {
			name = "other.cpu_pct"
		}
		out[name] = metric{out[name].Value + share, "%"}
	}
	return out, nil
}

// record is the full result of one run, written with --out.
type record struct {
	Workload   string            `json:"workload"`
	Seed       uint64            `json:"seed"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"GOMAXPROCS"`
	NProc      int               `json:"nproc"`
	Sizes      sizes             `json:"sizes"`
	BudgetS    int               `json:"budget_seconds"`
	Reps       int               `json:"repetitions"`
	TracedReps int               `json:"traced_repetitions"`
	Samples    map[string]int    `json:"timing_samples"`
	WorkS      []float64         `json:"raw_work_s"`
	SetupS     []float64         `json:"raw_setup_s"`
	Speeds     []float64         `json:"speed_factors"`
	Ops        int               `json:"ops"`
	FailedOps  int               `json:"failed_ops"`
	Digest     string            `json:"output_digest"`
	Failures   []string          `json:"failures"`
	EndToEnd   map[string]metric `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer,omitempty"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	traceDir string
	out      string
}

func main() {
	if childMode() {
		return
	}
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "host-chain, host-cxl, fleet-campaign, figures, or all")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 20, "wall-clock budget per workload, in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1: profile and trace the second half of the budget and report per-layer metrics")
	flag.StringVar(&o.traceDir, "trace-dir", filepath.Join(".bench_build", "tmobench-trace"), "where --trace 1 writes <workload>.pprof and <workload>.trace.json")
	flag.StringVar(&o.out, "out", "", "also write the run record as JSON to this file")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 || o.seconds < 1 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "tmobench: --trace takes 0 or 1, --seconds at least 1, and no positional arguments")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	runtime.GOMAXPROCS(min(procs, runtime.NumCPU()))

	var err error
	if o.workload == "all" {
		err = runAll(o)
	} else {
		err = runOne(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tmobench:", err)
		os.Exit(1)
	}
}

// childMode runs the binary as one of the benchmark's own child processes —
// a start-up probe or a calibration — and reports whether it did.
func childMode() bool {
	switch {
	case os.Getenv(probeEnv) != "":
	case os.Getenv(calibrationEnv) != "":
		fmt.Println(calibrationKernels().Seconds())
	default:
		return false
	}
	return true
}

// errFailed reports a run whose checks failed; its result line says which.
var errFailed = errors.New("checks failed")

// runOne measures one workload and prints its metrics, one per line, then
// the result line.
func runOne(o options) error {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == o.workload })
	if i < 0 {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	rec, res, err := benchmark(workloads[i], o, defaultSizes)
	if err != nil {
		return err
	}
	metrics, order := rec.EndToEnd, endToEndMetrics
	if o.trace {
		metrics, order = rec.PerLayer, perLayerMetrics
	}
	w := bufio.NewWriter(os.Stdout)
	for _, e := range order {
		fmt.Fprintf(w, "%s %s %s %s\n", rec.Workload, e.name, strconv.FormatFloat(metrics[e.name].Value, 'g', -1, 64), e.unit)
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "%s FAIL %s\n", rec.Workload, f)
	}
	fmt.Fprintf(w, "%s ops %d failed_ops %d repetitions %d output_digest %s\n", rec.Workload, rec.Ops, rec.FailedOps, rec.Reps+rec.TracedReps, rec.Digest)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	if err := w.Flush(); err != nil {
		return err
	}
	if o.out != "" {
		if err := writeJSON(o.out, rec); err != nil {
			return err
		}
	}
	if !res.Correct {
		return errFailed
	}
	return nil
}

// benchmark measures one workload and assembles its record and result.
func benchmark(w workload, o options, sz sizes) (record, result, error) {
	m, err := measure(w, o.seed, sz, time.Duration(o.seconds)*time.Second, o.trace, calibrate)
	if err != nil {
		return record{}, result{}, err
	}
	rec := record{
		Workload:   w.name,
		Seed:       o.seed,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Sizes:      sz,
		BudgetS:    o.seconds,
		Reps:       len(m.plain),
		TracedReps: len(m.traced),
		Samples:    map[string]int{"wall_s": len(m.plain), "setup_s": len(m.plain)},
		Digest:     fmt.Sprintf("%016x", m.plain[0].digest),
		Failures:   m.failures(),
		EndToEnd:   m.endToEnd(),
	}
	for _, r := range m.plain {
		rec.WorkS = append(rec.WorkS, r.work.Seconds())
		rec.SetupS = append(rec.SetupS, r.setup.Seconds())
		rec.Speeds = append(rec.Speeds, r.speed)
	}
	for _, r := range append(slices.Clone(m.plain), m.traced...) {
		rec.Ops += r.ops
		rec.FailedOps += r.failed
	}
	res := result{
		Correct:   len(rec.Failures) == 0,
		Attempted: rec.Ops,
		Failed:    rec.FailedOps,
		Metrics:   rec.EndToEnd,
	}
	if o.trace {
		if rec.PerLayer, err = m.perLayer(); err != nil {
			return record{}, result{}, err
		}
		for k, v := range m.traced[0].samples {
			rec.Samples[k] = len(v) * len(m.traced)
		}
		res.Metrics = rec.PerLayer
		if err := writeTrace(o.traceDir, w.name, m); err != nil {
			return record{}, result{}, err
		}
	}
	return rec, res, nil
}

// writeTrace writes the CPU profile and the harness spans.
func writeTrace(dir, name string, m measurement) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".pprof"), m.profile, 0o644); err != nil {
		return err
	}
	var b bytes.Buffer
	if err := m.spans.rec.WriteChromeTrace(&b); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".trace.json"), b.Bytes(), 0o644)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own, one after
// another, passes their output through, and ends with one result line
// whose metrics are named <workload>.<metric>. With --out FILE each child
// writes its record to FILE.<workload>.
func runAll(o options) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		args := []string{"--workload", w.name, "--seed", strconv.FormatUint(o.seed, 10),
			"--seconds", strconv.Itoa(o.seconds), "--trace-dir", o.traceDir}
		if o.trace {
			args = append(args, "--trace", "1")
		}
		if o.out != "" {
			args = append(args, "--out", o.out+"."+w.name)
		}
		var stdout bytes.Buffer
		cmd := exec.Command(exe, args...)
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()
		lines := strings.Split(strings.TrimRight(stdout.String(), "\n"), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			return fmt.Errorf("%s: no result line (%v)", w.name, runErr)
		}
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
		all.Correct = all.Correct && res.Correct && runErr == nil
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w.name+"."+k] = v
		}
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !all.Correct {
		return errFailed
	}
	return nil
}
