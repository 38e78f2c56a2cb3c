package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/telemetry"
	"tmo/internal/vclock"
)

// exportModes is every offload mode, in Mode order.
var exportModes = []Mode{ModeOff, ModeFileOnly, ModeZswap, ModeSSDSwap, ModeTiered, ModeNVM, ModeCXL}

// chaosHost builds a pressured host in mode under a chaos script that
// touches every layer the mode has: the SSD (wear, which counts against
// endurance without IO, and a recurring stall) on every host, a swap fill
// where there is a chain, and a degraded, stalling link in cxl. Swap
// readahead is on, so batched loads coalesce and skip. Tiered mode gets a
// small lz4-over-zstd-over-SSD chain over a shallow writeback queue, so
// demotion, admission skips and demotion backpressure all fire within a few
// virtual minutes.
func chaosHost(t testing.TB, mode Mode) *System {
	opts := Options{Mode: mode, CapacityBytes: 256 * MiB, SwapReadahead: 8, Senpai: fastSenpai(), Seed: 17}
	if mode == ModeTiered {
		opts.Tiers = []backend.TierSpec{
			{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 2 * MiB, HighWater: 0.5, LowWater: 0.4},
			{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: 4 * MiB, MinCompressRatio: 1.5},
			{Kind: backend.TierSSD, CapacityBytes: 1024 * MiB},
		}
		opts.WritebackDepth = 4
	}
	sys := New(opts)
	sys.AddWorkload("feed")
	sys.AddTax()
	script := "t=20s ssd-wear 1.5; t=30s ssd-stall 1s every=40s"
	if sys.Chain != nil {
		script += "; t=70s swap-fill 0.95 for=60s"
	}
	if sys.CXL != nil {
		script += "; t=40s cxl-degrade x4 for=60s; t=50s cxl-stall 20ms every=10s"
	}
	if err := sys.Chaos().AddScript(script); err != nil {
		t.Fatal(err)
	}
	return sys
}

// promDump renders the host's registry in Prometheus text format without
// sim_tick_wall_us, the one instrument timed on the wall clock.
func promDump(t testing.TB, sys *System) string {
	var raw strings.Builder
	if err := sys.TelemetrySnapshot().WritePrometheus(&raw); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range strings.Split(raw.String(), "\n") {
		if !strings.Contains(line, "sim_tick_wall_us") {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

var update = flag.Bool("update", false, "rewrite the testdata golden files")

// checkGolden compares got with the golden file testdata/name, or rewrites
// the file under -update. On a mismatch it reports the first differing line.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := string(b); got != want {
		g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		line := func(ls []string) string {
			if i < len(ls) {
				return fmt.Sprintf("%q", ls[i])
			}
			return "end of output"
		}
		t.Errorf("%s: line %d is %s, want %s (go test -run %s -update re-records it)", path, i+1, line(g), line(w), t.Name())
	}
}

// TestTelemetryExportGolden compares every mode's Prometheus dump after
// three virtual minutes under chaos with testdata/telemetry-<mode>.prom.
// Every exported name, label, kind and value takes part, so a refactor of
// how a layer publishes a count fails here unless the exported series stay
// byte-identical. The
// ssd-wear fault pins that backend.ssd.written_bytes counts IO only, while
// the device's endurance figure also carries the injected wear.
func TestTelemetryExportGolden(t *testing.T) {
	for _, mode := range exportModes {
		t.Run(mode.String(), func(t *testing.T) {
			sys := chaosHost(t, mode)
			sys.Run(3 * vclock.Minute)
			dump := promDump(t, sys)
			m, ok := sys.TelemetrySnapshot().Get("backend.ssd.written_bytes",
				telemetry.Label{Key: "device", Value: sys.Device.Spec.Model})
			if !ok || int64(m.Value) >= sys.Device.WrittenBytes() {
				t.Fatalf("written_bytes %v (found %v) not below the device's %d: injected wear leaked into the IO count",
					m.Value, ok, sys.Device.WrittenBytes())
			}
			checkGolden(t, "telemetry-"+mode.String()+".prom", dump)
		})
	}
}

// TestCountersMonotone snapshots a chaos-laden host in every mode once a
// virtual minute and checks that no series of kind counter ever decreases:
// a counter wired to a level (pages stored, bytes in use) would fall once
// the swap fill lifts or the workload frees memory.
func TestCountersMonotone(t *testing.T) {
	for _, mode := range exportModes {
		t.Run(mode.String(), func(t *testing.T) {
			sys := chaosHost(t, mode)
			last := map[string]float64{}
			for minute := 1; minute <= 4; minute++ {
				sys.Run(vclock.Minute)
				for _, m := range sys.TelemetrySnapshot().Metrics {
					if m.Kind != "counter" {
						continue
					}
					id := m.Name
					for _, l := range m.Labels {
						id += "," + l.Key + "=" + l.Value
					}
					if prev, ok := last[id]; ok && m.Value < prev {
						t.Errorf("minute %d: counter %s fell from %v to %v", minute, id, prev, m.Value)
					}
					last[id] = m.Value
				}
			}
		})
	}
}
