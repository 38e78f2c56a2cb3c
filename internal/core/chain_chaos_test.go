package core

import (
	"fmt"
	"strings"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/vclock"
)

// TestTieredChainChaosDeterminism: a 3-tier host (lz4 over zstd over SSD)
// under compress-drift and a slow-device window replays byte-identically per
// seed — the chain manager's demotion passes, the refault promotions, and
// the admission re-runs all live on the virtual clock. The drift bit is the
// satellite regression at system level: pages that stop compressing get
// re-tiered through the chaos window instead of stranding in the dense
// tiers.
func TestTieredChainChaosDeterminism(t *testing.T) {
	run := func(seed uint64) string {
		sys := New(Options{
			Mode:          ModeTiered,
			CapacityBytes: 512 * MiB,
			Tiers: []backend.TierSpec{
				{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 2 * MiB},
				{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: 16 * MiB, MinCompressRatio: 1.5},
				{Kind: backend.TierSSD, CapacityBytes: 2048 * MiB},
			},
			Senpai: fastSenpai(),
			Seed:   seed,
		})
		app := sys.AddWorkload("cache-b")
		script := "t=3m compress x0.3 ramp=1m for=5m; t=6m ssd-slow x4 for=2m"
		if err := sys.Chaos().AddScript(script); err != nil {
			t.Fatal(err)
		}
		sys.Run(14 * vclock.Minute)

		var raw strings.Builder
		if err := sys.TelemetrySnapshot().WritePrometheus(&raw); err != nil {
			t.Fatal(err)
		}
		// Drop the one wall-clock instrument from the fingerprint; everything
		// else runs on virtual time.
		var b strings.Builder
		for _, line := range strings.Split(raw.String(), "\n") {
			if strings.Contains(line, "sim_tick_wall_us") {
				continue
			}
			b.WriteString(line)
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "demotions=%d promotions=%d skips=%d stalls=%d completed=%d\n",
			sys.Chain.Demotions(), sys.Chain.Promotions(), sys.Chain.AdmitSkips(),
			sys.Chain.DemoteBackpressure(), app.Completed())
		for i := 0; i < len(sys.Chain.TierSpecs()); i++ {
			st := sys.Chain.TierStats(i)
			fmt.Fprintf(&b, "tier%d pages=%d stored=%d\n", i, st.StoredPages, st.StoredBytes)
		}
		return b.String()
	}

	a, b := run(91), run(91)
	if a != b {
		t.Fatal("same seed diverged on a 3-tier chain under chaos")
	}
	if c := run(92); c == a {
		t.Fatal("different seeds produced identical trajectories")
	}
	// The drift bit: admission re-ran against the degraded ratios (skips
	// routed pages past the dense tiers) and the chain manager kept pages
	// moving rather than letting the dense tiers strand them.
	tail := a[strings.Index(a, "demotions="):]
	if strings.Contains(tail, "skips=0 ") {
		t.Fatalf("compress-drift produced no admission skips:\n%s", tail)
	}
	if strings.HasPrefix(tail, "demotions=0 ") {
		t.Fatalf("chain manager idle under drift:\n%s", tail)
	}
}
