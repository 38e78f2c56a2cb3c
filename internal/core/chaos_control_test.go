package core

import (
	"fmt"
	"strings"
	"testing"

	"tmo/internal/psi"
	"tmo/internal/senpai"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// TestChaosUnitFaultIsControl: the H10 control, for every fault class. A
// fault at unit magnitude (x1, zero wear, fill or bloat, a zero-length
// stall) changes nothing, so a run carrying one must be the fault-free
// run: the same Metrics, per-app completions, root PSI totals and registry
// series, apart from the chaos engine's own chaos.* series and the
// wall-clock sim.tick_wall_us histogram. A fault path that consumes randomness or
// perturbs state even when it is a no-op fails here.
func TestChaosUnitFaultIsControl(t *testing.T) {
	run := func(mode Mode, script string) string {
		sys := New(Options{
			Mode:          mode,
			CapacityBytes: 384 * MiB,
			CXLBytes:      128 * MiB,
			Senpai:        fastSenpai(),
			Seed:          1,
		})
		sys.AddWorkload("feed")
		sys.AddTax()
		if script != "" {
			if err := sys.Chaos().AddScript(script); err != nil {
				t.Fatal(err)
			}
		}
		sys.Run(8 * vclock.Minute)

		var b strings.Builder
		b.WriteString(outcome(sys))
		var raw strings.Builder
		if err := sys.TelemetrySnapshot().WritePrometheus(&raw); err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(raw.String(), "\n") {
			if strings.Contains(line, "chaos_") || strings.Contains(line, "sim_tick_wall_us") {
				continue
			}
			b.WriteString(line)
			b.WriteString("\n")
		}
		return b.String()
	}

	for _, tc := range []struct {
		mode   Mode
		script string
	}{
		{ModeTiered, "t=2m ssd-slow x1 for=4m"},
		{ModeTiered, "t=2m ssd-wear 0 for=4m"},
		{ModeTiered, "t=2m ssd-stall 0s every=30s for=1s"},
		{ModeTiered, "t=2m load x1 for=4m"},
		{ModeTiered, "t=2m compress x1 for=4m"},
		{ModeTiered, "t=2m bloat 0B for=4m"},
		{ModeTiered, "t=2m swap-fill 0 for=4m"},
		{ModeTiered, "t=2m capacity x1 for=4m"},
		{ModeCXL, "t=2m cxl-degrade x1 for=4m"},
		{ModeCXL, "t=2m cxl-stall 0s every=30s for=1s"},
	} {
		t.Run(tc.mode.String()+"/"+strings.Fields(tc.script)[1], func(t *testing.T) {
			control, faulted := run(tc.mode, ""), run(tc.mode, tc.script)
			if control != faulted {
				t.Fatalf("%q diverged from the fault-free run:\n%s", tc.script, firstDiff(control, faulted))
			}
		})
	}
}

// TestSenpaiZeroRatioIsControl: the H10 control for the controller. Senpai
// with a zero ReclaimRatio requests no reclaim, so its host must run as one
// without Senpai: the same Metrics, per-app completions and root PSI totals.
// A control interval that reclaims anything without a request fails here;
// a zero-byte memory.reclaim is a no-op, so this cannot see one.
func TestSenpaiZeroRatioIsControl(t *testing.T) {
	run := func(mode Mode, cfg *senpai.Config) string {
		sys := New(Options{
			Mode:          mode,
			CapacityBytes: 384 * MiB,
			Senpai:        cfg,
			DisableSenpai: cfg == nil,
			Seed:          1,
		})
		sys.AddWorkload("feed")
		sys.AddTax()
		sys.Run(8 * vclock.Minute)
		return outcome(sys)
	}
	idle := senpai.ConfigA()
	idle.ReclaimRatio = 0
	for _, mode := range []Mode{ModeSSDSwap, ModeZswap, ModeTiered} {
		t.Run(mode.String(), func(t *testing.T) {
			control, idled := run(mode, nil), run(mode, &idle)
			if control != idled {
				t.Fatalf("an idle Senpai diverged from no Senpai:\n%s", firstDiff(control, idled))
			}
		})
	}
}

// TestEmptyFarNodeIsControl: the H10 control for the placement tier. A far
// node with no room for a page can take no demotion, so a ModeCXL host over
// it must run as the ModeSSDSwap host with the same swap chain, both under
// the TPP placement loop and under static interleave: the same Metrics,
// per-app completions and root PSI totals, and the same decision trace. The
// trace carries proactive reclaim's stall (in Senpai's spans), which no
// other output sees, so a reclaim that prices a migration the node refused
// fails here too.
func TestEmptyFarNodeIsControl(t *testing.T) {
	run := func(mode Mode, interleave float64) string {
		sys := New(Options{
			Mode:           mode,
			CapacityBytes:  384 * MiB,
			CXLBytes:       1,
			InterleaveFrac: interleave,
			Senpai:         fastSenpai(),
			Seed:           1,
		})
		sys.AddWorkload("feed")
		sys.AddTax()
		sys.Run(8 * vclock.Minute)
		return outcome(sys) + trace.Lines(sys.Trace.Records())
	}
	control := run(ModeSSDSwap, 0)
	for _, tc := range []struct {
		name       string
		interleave float64
	}{{"tpp", 0}, {"interleave", 0.5}} {
		t.Run(tc.name, func(t *testing.T) {
			if empty := run(ModeCXL, tc.interleave); empty != control {
				t.Fatalf("an empty far node diverged from ssd swap:\n%s", firstDiff(control, empty))
			}
		})
	}
}

// outcome renders what a control run must leave unchanged: the host's
// Metrics, each app's completions and the root PSI totals.
func outcome(sys *System) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%+v\n", sys.Metrics())
	for _, app := range sys.Server.Apps() {
		fmt.Fprintf(&b, "%s completed=%d\n", app.Profile.Name, app.Completed())
	}
	root := sys.Server.Hierarchy().Root().PSI()
	for r := psi.Resource(0); r < psi.NumResources; r++ {
		fmt.Fprintf(&b, "psi %v some=%d full=%d\n", r, root.Total(r, psi.Some), root.Total(r, psi.Full))
	}
	return b.String()
}

// firstDiff returns the first differing line pair of two fingerprints.
func firstDiff(a, b string) string {
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(la), len(lb)) {
		if la[i] != lb[i] {
			return fmt.Sprintf("line %d:\n  control: %s\n  faulted: %s", i, la[i], lb[i])
		}
	}
	return fmt.Sprintf("control has %d lines, faulted %d", len(la), len(lb))
}
