package rollout

import (
	"strings"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/trace"
	"tmo/internal/vclock"
)

// TestUnsizedSSDTierHasSwapCapacity: a tier chain whose SSD tier carries no size
// (a bare "ssd" in -tiers or -tier-config) is sized at the core default, so
// the host reports a nonzero swap capacity and the SwapUtilizationLatch
// guardrail stays armed for it.
func TestUnsizedSSDTierHasSwapCapacity(t *testing.T) {
	const mib = 1 << 20
	base := tierPolicy("baseline", []backend.TierSpec{
		{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 16 * mib},
		{Kind: backend.TierSSD},
	})
	base.Config = idleBaseline()
	cfg := testConfig(safePolicy())
	cfg.Baseline = base
	c := New(cfg)
	for _, h := range c.hosts {
		dram := h.sim.(*fleet.SimHost).Opts.CapacityBytes
		if want := 16*mib + core.DefaultSwapFactor*dram; h.swapCap != want {
			t.Fatalf("host %d swap capacity = %d, want lz4 16m + ssd 4x DRAM = %d", h.index, h.swapCap, want)
		}
	}
}

// tierPolicy builds a ModeTiered candidate whose backend is an explicit
// tier chain.
func tierPolicy(name string, tiers []backend.TierSpec) Policy {
	return Policy{
		Name:   name,
		Mode:   core.ModeTiered,
		Config: safeCandidate(),
		Tiers:  tiers,
	}
}

// TestTierConfigRace races three tier-chain configurations as bandit
// candidates — the issue's headline rollout scenario — and requires a
// winner promoted by lifetime weighted savings with the whole fleet
// converged on its chain.
func TestTierConfigRace(t *testing.T) {
	const mib = 1 << 20
	cands := []Policy{
		tierPolicy("chain-zstd", []backend.TierSpec{
			{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: 48 * mib},
			{Kind: backend.TierSSD},
		}),
		tierPolicy("chain-lz4-zstd", []backend.TierSpec{
			{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 16 * mib},
			{Kind: backend.TierZswap, Codec: backend.CodecZstd, CapacityBytes: 32 * mib, MinCompressRatio: 1.5},
			{Kind: backend.TierSSD},
		}),
		tierPolicy("chain-lz4", []backend.TierSpec{
			{Kind: backend.TierZswap, Codec: backend.CodecLz4, CapacityBytes: 48 * mib},
			{Kind: backend.TierSSD},
		}),
	}
	cfg := Config{
		Hosts:         testFleet(6),
		Baseline:      baselinePolicy(),
		Candidates:    cands,
		Plan:          []Stage{{Name: "race", Frac: 0.5, Bake: 3}, {Name: "fleet", Frac: 1.0, Bake: 3}},
		Guardrails:    testGuardrails(),
		Window:        30 * vclock.Second,
		WarmWindows:   2,
		SettleWindows: 1,
		Seed:          42,
	}
	r := New(cfg).Run()
	if !r.Completed() {
		t.Fatalf("state = %s, want completed; log:\n%s", r.State, r.EventLog())
	}
	if r.Promoted == "" {
		t.Fatalf("no tier configuration promoted; log:\n%s", r.EventLog())
	}
	raced := 0
	for _, c := range r.Candidates {
		if c.Windows > 0 {
			raced++
		}
	}
	if raced < 3 {
		t.Fatalf("only %d tier configurations accumulated windows, want 3; outcomes: %+v", raced, r.Candidates)
	}
	if !strings.Contains(r.EventLog(), string(trace.KindRolloutPromote)) {
		t.Fatalf("event log lacks %s:\n%s", trace.KindRolloutPromote, r.EventLog())
	}
	for _, h := range r.Hosts {
		if h.Policy != r.Promoted {
			t.Fatalf("host %d ended on %q, want promoted %q", h.Index, h.Policy, r.Promoted)
		}
	}
}
