package chaos_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tmo/internal/cgroup"
	"tmo/internal/chaos"
	"tmo/internal/core"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// chaosScript exercises every fault class, including a seeded-random
// recurrence (ssd-stall) whose timing must come from the engine's PCG.
const chaosScript = "t=30s ssd-stall 300ms every=60s; " +
	"t=1m ssd-slow x4 for=90s; " +
	"t=1m ssd-wear 0.2 ramp=1m; " +
	"t=2m load x1.5 ramp=30s for=1m; " +
	"t=2m30s compress x0.5 for=1m; " +
	"t=3m capacity x0.8 for=1m; " +
	"t=3m30s bloat 4MiB for=1m; " +
	"t=4m swap-fill 0.2 for=30s"

// runScripted runs a chaos-perturbed host for six virtual minutes and
// returns its telemetry snapshot (Prometheus text) and Chrome trace JSON.
func runScripted(t *testing.T, seed uint64) (string, string) {
	return runScriptedWB(t, seed, 0)
}

func runScriptedWB(t *testing.T, seed uint64, wbDepth int) (string, string) {
	t.Helper()
	prof := workload.MustCatalog("feed").Scale(0.5)
	sys := core.New(core.Options{
		Mode:           core.ModeSSDSwap,
		CapacityBytes:  2 * prof.FootprintBytes,
		Seed:           seed,
		WritebackDepth: wbDepth,
	})
	sys.AddProfile(prof, cgroup.Workload)
	if err := sys.Chaos().AddScript(chaosScript); err != nil {
		t.Fatal(err)
	}
	sys.Run(6 * vclock.Minute)

	var met, tr bytes.Buffer
	if err := sys.TelemetrySnapshot().WritePrometheus(&met); err != nil {
		t.Fatal(err)
	}
	if err := sys.Trace.WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	return stripWallClock(met.String()), tr.String()
}

// stripWallClock removes the simulator's self-instrumentation — the one
// histogram measuring real (wall) time per tick, which is legitimately
// nondeterministic. Everything else in the registry is virtual-time data.
func stripWallClock(s string) string {
	var keep []string
	for _, line := range strings.Split(s, "\n") {
		if !strings.Contains(line, "sim_tick_wall_us") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestDeterminism: same seed and script produce byte-identical telemetry
// and trace output; a different seed perturbs the run.
func TestDeterminism(t *testing.T) {
	met1, tr1 := runScripted(t, 7)
	met2, tr2 := runScripted(t, 7)
	if met1 != met2 {
		t.Errorf("telemetry snapshots differ across identical runs:\n%s", firstDiffLine(met1, met2))
	}
	if tr1 != tr2 {
		t.Errorf("Chrome traces differ across identical runs:\n%s", firstDiffLine(tr1, tr2))
	}
	_, tr3 := runScripted(t, 8)
	if tr1 == tr3 {
		t.Error("different seeds produced identical traces")
	}
}

// TestDeterminismWithWritebackQueue: the async writeback queue is on the
// deterministic path — a shallow queue under the full chaos script
// (including recurring ssd-stalls that gate its drain schedule) still
// yields byte-identical runs.
func TestDeterminismWithWritebackQueue(t *testing.T) {
	met1, tr1 := runScriptedWB(t, 7, 4)
	met2, tr2 := runScriptedWB(t, 7, 4)
	if met1 != met2 {
		t.Errorf("telemetry snapshots differ across identical queued runs:\n%s", firstDiffLine(met1, met2))
	}
	if tr1 != tr2 {
		t.Errorf("Chrome traces differ across identical queued runs:\n%s", firstDiffLine(tr1, tr2))
	}
}

// TestChaosStallBacksUpWritebackQueue: an injected device stall must
// propagate through the writeback queue as reclaim-side backpressure, and
// queued stores must still drain on the virtual clock.
func TestChaosStallBacksUpWritebackQueue(t *testing.T) {
	met, _ := runScriptedWB(t, 7, 2)
	for _, want := range []string{"backend_wb_drained", "backend_wb_backpressure_stalls"} {
		if !strings.Contains(met, want) {
			t.Fatalf("telemetry snapshot missing %q", want)
		}
	}
	if v := metricValue(t, met, "backend_wb_drained"); v <= 0 {
		t.Errorf("writeback queue drained %v submissions, want > 0", v)
	}
	if v := metricValue(t, met, "backend_wb_backpressure_stalls"); v <= 0 {
		t.Errorf("tight queue under chaos stalls recorded %v backpressure stalls, want > 0", v)
	}
}

// metricValue extracts a bare (unlabelled) metric's value from a
// Prometheus text dump.
func metricValue(t *testing.T, dump, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(dump, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line, name+" %g", &v); err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// TestChaosObservability: injected events surface in both the telemetry
// registry and the exported Chrome trace.
func TestChaosObservability(t *testing.T) {
	met, tr := runScripted(t, 7)
	for _, want := range []string{
		`chaos_injections{fault="ssd-slow"}`,
		`chaos_injections{fault="load"}`,
		`chaos_restores{fault="ssd-slow"}`,
		"chaos_applies",
	} {
		if !strings.Contains(met, want) {
			t.Errorf("telemetry snapshot missing %q", want)
		}
	}
	for _, want := range []string{`"chaos.inject"`, `"chaos.restore"`, `"ph":"i"`, `"level"`} {
		if !strings.Contains(tr, want) {
			t.Errorf("Chrome trace missing %q", want)
		}
	}
}

// TestScheduleShapes drives the engine directly and checks each schedule
// form's level curve.
func TestScheduleShapes(t *testing.T) {
	type call struct {
		at  vclock.Time
		lvl float64
	}
	var calls []call
	record := chaos.Fault{Kind: "probe", Set: func(now vclock.Time, level float64) {
		calls = append(calls, call{now, level})
	}}

	t0 := vclock.Time(0)
	tick := vclock.Second

	// One-shot step: on at 30s, off at 90s, never again.
	e := chaos.NewEngine(chaos.Host{Seed: 1})
	e.Add("step", record, chaos.Schedule{At: t0.Add(30 * vclock.Second), Dur: vclock.Minute})
	for now := t0; now < t0.Add(3*vclock.Minute); now = now.Add(tick) {
		e.Tick(now)
	}
	if len(calls) != 2 {
		t.Fatalf("step schedule made %d Set calls, want 2 (inject+restore): %v", len(calls), calls)
	}
	if calls[0].lvl != 1 || calls[0].at != t0.Add(30*vclock.Second) {
		t.Errorf("inject wrong: %+v", calls[0])
	}
	if calls[1].lvl != 0 || calls[1].at != t0.Add(90*vclock.Second) {
		t.Errorf("restore wrong: %+v", calls[1])
	}

	// Ramp: level rises monotonically from 0 to 1 over the ramp.
	calls = nil
	e = chaos.NewEngine(chaos.Host{Seed: 1})
	e.Add("ramp", record, chaos.Schedule{At: t0.Add(10 * vclock.Second), Ramp: vclock.Minute, Dur: 10 * vclock.Second})
	for now := t0; now < t0.Add(2*vclock.Minute); now = now.Add(tick) {
		e.Tick(now)
	}
	if len(calls) < 10 {
		t.Fatalf("ramp made only %d Set calls", len(calls))
	}
	last := -1.0
	for _, c := range calls[:len(calls)-1] { // all but the final restore
		if c.lvl < last {
			t.Fatalf("ramp level decreased mid-ramp: %+v", calls)
		}
		last = c.lvl
	}
	if calls[len(calls)-1].lvl != 0 {
		t.Errorf("ramp never restored: %+v", calls[len(calls)-1])
	}

	// Recurrence: multiple inject/restore pairs, gaps from the seeded PCG.
	calls = nil
	e = chaos.NewEngine(chaos.Host{Seed: 1})
	e.Add("recur", record, chaos.Schedule{At: t0.Add(10 * vclock.Second), Dur: 20 * vclock.Second, Every: vclock.Minute})
	for now := t0; now < t0.Add(20*vclock.Minute); now = now.Add(tick) {
		e.Tick(now)
	}
	var injects int
	for _, c := range calls {
		if c.lvl == 1 {
			injects++
		}
	}
	if injects < 3 {
		t.Errorf("recurring schedule injected only %d times in 20m", injects)
	}
}

// TestScriptErrors: malformed clauses and faults lacking their host surface
// are rejected up front, each with its own message.
func TestScriptErrors(t *testing.T) {
	e := chaos.NewEngine(chaos.Host{}) // no device, CXL node, swap or manager
	for _, tc := range []struct{ clause, want string }{
		{"t=1m nosuch x2", `unknown fault "nosuch"`},
		{"ssd-slow x2", "clause must start with t=<time>"},
		{"t=-1m load x2", "negative duration"},
		{"t=1m load x2 for=bogus", "invalid duration"},
		{"t=1m capacity x1.5", "capacity factor must be in (0, 1]"},
		{"t=1m ssd-slow x0.5", "slowdown factor must be at least 1"},
		{"t=1m cxl-degrade x0.9", "slowdown factor must be at least 1"},
		{"t=1m ssd-slow x2", "ssd-slow requires a host SSD device"},
		{"t=1m ssd-wear 0.2", "ssd-wear requires a host SSD device"},
		{"t=1m ssd-stall 1s", "ssd-stall requires a host SSD device"},
		{"t=1m cxl-degrade x2", "cxl-degrade requires a far-memory node"},
		{"t=1m cxl-stall 50ms", "cxl-stall requires a far-memory node"},
		{"t=1m swap-fill 0.5", "swap-fill requires a swap backend"},
		{"t=1m capacity x0.5", "capacity requires a memory manager"},
	} {
		err := e.AddScript(tc.clause)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("AddScript(%q) = %v, want an error containing %q", tc.clause, err, tc.want)
		}
	}
	if armed := e.String(); armed != "" {
		t.Errorf("rejected clauses left events armed:\n%s", armed)
	}
}

// firstDiffLine locates the first differing line between two dumps.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + al[i] + "\n  vs " + bl[i]
		}
	}
	return "length mismatch"
}
