package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	if childMode() {
		return
	}
	os.Exit(m.Run())
}

// restingMachine calibrates to a speed factor of 1.
func restingMachine() (float64, error) { return calibrationSeconds, nil }

// TestWorkloadsSmoke runs every workload at reduced size once untraced and
// once traced: every check must pass, the two repetitions must produce
// identical simulated output, and the per-layer report must assemble.
func TestWorkloadsSmoke(t *testing.T) {
	sz := sizes{HostMinutes: 10, CampaignHosts: 2000, Exhibits: []string{"fig5", "fig7", "table51"}}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			m, err := measure(w, 1, sz, 0, true, restingMachine)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.plain) != 1 || len(m.traced) != 1 {
				t.Fatalf("got %d untraced and %d traced repetitions, want 1 and 1", len(m.plain), len(m.traced))
			}
			for _, f := range m.failures() {
				t.Error(f)
			}
			if m.plain[0].ops == 0 {
				t.Error("no operations checked")
			}
			e2e := m.endToEnd()
			for _, name := range []string{"wall_s", "setup_s", "peak_rss_mib"} {
				if e2e[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, e2e[name].Value)
				}
			}
			layers, err := m.perLayer()
			if err != nil {
				t.Fatal(err)
			}
			if len(layers) != len(perLayerMetrics) {
				t.Errorf("%d per-layer metrics, want %d", len(layers), len(perLayerMetrics))
			}
			var cpu float64
			for name, v := range layers {
				if strings.HasSuffix(name, ".cpu_pct") {
					cpu += v.Value
				}
			}
			if cpu != 0 && math.Abs(cpu-100) > 1 {
				t.Errorf("CPU shares sum to %.2f%%, want 100", cpu)
			}
		})
	}
}

// spin burns CPU in this package without calling into any other.
//
//go:noinline
func spin(d time.Duration) uint64 {
	x := uint64(1)
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1_000_000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileRollupFindsBusyPackage profiles a busy loop in this package and
// checks that the decoded profile attributes most self time to it.
func TestProfileRollupFindsBusyPackage(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	spin(400 * time.Millisecond)
	pprof.StopCPUProfile()

	byPkg, err := packageSelfTime(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	shares := layerShares(byPkg)
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if math.Abs(sum-100) > 1e-6 {
		t.Errorf("shares sum to %v", sum)
	}
	if shares["bench"] < 50 {
		t.Errorf("busy loop in package main got %.1f%% of self time (%v)", shares["bench"], shares)
	}
}

func TestFuncPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"tmo/internal/mm.(*Manager).reclaim":                          "tmo/internal/mm",
		"tmo/internal/mm.(*Manager).reclaim.func1":                    "tmo/internal/mm",
		"runtime.mallocgc":                                            "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                "internal/runtime/maps",
		"slices.insertionSortCmpFunc[go.shape.*tmo/internal/mm.Page]": "slices",
		"main.spin":                            "main",
		"compress/flate.(*compressor).deflate": "compress/flate",
	} {
		if got := funcPackage(sym); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, want)
		}
	}
	for pkg, want := range map[string]string{
		"tmo/internal/backend":  "backend",
		"runtime":               "runtime",
		"internal/runtime/maps": "runtime",
		"main":                  "bench",
		"sort":                  "stdlib",
	} {
		if got := layerOf(pkg); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", pkg, got, want)
		}
	}
}

func TestTailRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, so tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(10)); ok {
		t.Error("10 samples leave no percentile with ten samples beyond it")
	}
	for _, c := range []struct {
		n         int
		want, pct float64
	}{
		{11, 1, 100.0 / 11},
		{100, 90, 90},
		{1000, 990, 99},
	} {
		v, pct, ok := tail(seq(c.n))
		if !ok || v != c.want || math.Abs(pct-c.pct) > 1e-9 {
			t.Errorf("tail of 1..%d = %v at %v%% (ok %v), want %v at %v%%", c.n, v, pct, ok, c.want, c.pct)
		}
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the repository's BENCHMARK.json and
// the metrics this command prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for i, w := range workloads {
		if i >= len(spec.Workloads) || spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q here, not in BENCHMARK.json", i, w.name)
		}
	}
	for _, c := range []struct {
		kind string
		spec []entry
		code []struct{ name, unit string }
	}{
		{"end_to_end", spec.EndToEnd, endToEndMetrics},
		{"per_layer", spec.PerLayer, perLayerMetrics},
	} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d here", c.kind, len(c.spec), len(c.code))
			continue
		}
		for i, e := range c.code {
			if c.spec[i].Name != e.name || c.spec[i].Unit != e.unit {
				t.Errorf("%s %d: %s %s in BENCHMARK.json, %s %s here", c.kind, i, c.spec[i].Name, c.spec[i].Unit, e.name, e.unit)
			}
		}
	}
}
