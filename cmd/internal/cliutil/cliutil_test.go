package cliutil

import (
	"strings"
	"testing"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/rollout"
	"tmo/internal/vclock"
)

func TestParseDuration(t *testing.T) {
	d, err := ParseDuration("warm", "90s")
	if err != nil || d != 90*vclock.Second {
		t.Fatalf("ParseDuration = %v, %v", d, err)
	}
	for _, bad := range []string{"", "nope", "-5m"} {
		if _, err := ParseDuration("warm", bad); err == nil {
			t.Errorf("ParseDuration(%q) accepted", bad)
		} else if !strings.Contains(err.Error(), "-warm") {
			t.Errorf("error %v does not name the flag", err)
		}
	}
}

func TestParseMode(t *testing.T) {
	cases := map[string]core.Mode{
		"off": core.ModeOff, "file-only": core.ModeFileOnly, "zswap": core.ModeZswap,
		"ssd": core.ModeSSDSwap, "tiered": core.ModeTiered, "nvm": core.ModeNVM, "cxl": core.ModeCXL,
	}
	for s, want := range cases {
		got, err := ParseMode(s)
		if err != nil || got != want {
			t.Errorf("ParseMode(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseMode("floppy"); err == nil {
		t.Fatalf("unknown mode accepted")
	}
}

func TestParseStagePlan(t *testing.T) {
	plan, err := ParseStagePlan("canary=0.1/4,stage-2=0.5, fleet=1", 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []rollout.Stage{
		{Name: "canary", Frac: 0.1, Bake: 4},
		{Name: "stage-2", Frac: 0.5, Bake: 3},
		{Name: "fleet", Frac: 1, Bake: 3},
	}
	if len(plan) != len(want) {
		t.Fatalf("plan = %+v, want %+v", plan, want)
	}
	for i := range want {
		if plan[i] != want[i] {
			t.Errorf("stage %d = %+v, want %+v", i, plan[i], want[i])
		}
	}
	for _, bad := range []string{"", "canary", "canary=x", "canary=0.1/x", "=0.5"} {
		if _, err := ParseStagePlan(bad, 3); err == nil {
			t.Errorf("ParseStagePlan(%q) accepted", bad)
		}
	}
}

func TestParseGuardrailSpec(t *testing.T) {
	dev, g, err := ParseGuardrailSpec("F:psi=0.0002,rps=0.25,oom=-1,latch=0.9,latched=2")
	if err != nil {
		t.Fatal(err)
	}
	if dev != "F" {
		t.Fatalf("device = %q, want F", dev)
	}
	want := rollout.Guardrails{
		MaxMemPressure:       0.0002,
		MaxRPSDip:            0.25,
		MaxOOMKills:          rollout.Unlimited,
		SwapUtilizationLatch: 0.9,
		MaxSwapLatched:       2,
	}
	if g != want {
		t.Fatalf("guardrails = %+v, want %+v", g, want)
	}
	// No device prefix: fleet-wide bundle over the defaults.
	dev, g, err = ParseGuardrailSpec("oom=3")
	if err != nil || dev != "" {
		t.Fatalf("fleet-wide spec: dev=%q err=%v", dev, err)
	}
	def := rollout.DefaultGuardrails()
	def.MaxOOMKills = 3
	if g != def {
		t.Fatalf("guardrails = %+v, want defaults with oom=3 (%+v)", g, def)
	}
	for _, bad := range []string{":psi=1", "psi", "psi=x", "F:banana=1", "oom=1.5"} {
		if _, _, err := ParseGuardrailSpec(bad); err == nil {
			t.Errorf("ParseGuardrailSpec(%q) accepted", bad)
		}
	}
}

func TestWriteJSON(t *testing.T) {
	var b strings.Builder
	if err := WriteJSON(&b, map[string]int{"hosts": 4}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"hosts": 4`) || !strings.HasSuffix(out, "\n") {
		t.Fatalf("unexpected JSON: %q", out)
	}
	if err := WriteJSON(&b, func() {}); err == nil {
		t.Fatalf("unencodable value accepted")
	}
}

func TestParseBytes(t *testing.T) {
	cases := map[string]int64{
		"0": 0, "4096": 4096, "2k": 2 << 10, "512M": 512 << 20, "2g": 2 << 30, "1t": 1 << 40,
	}
	for s, want := range cases {
		got, err := ParseBytes(s)
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	for _, bad := range []string{"", "-1g", "2.5g", "gig"} {
		if _, err := ParseBytes(bad); err == nil {
			t.Errorf("ParseBytes(%q) accepted", bad)
		}
	}
}

func TestParseTierSpec(t *testing.T) {
	tiers, err := ParseTierSpec("lz4:2g, zstd:4g,ssd")
	if err != nil {
		t.Fatal(err)
	}
	if len(tiers) != 3 {
		t.Fatalf("got %d tiers, want 3: %+v", len(tiers), tiers)
	}
	if tiers[0].Kind != backend.TierZswap || tiers[0].Codec.Name != "lz4" || tiers[0].CapacityBytes != 2<<30 {
		t.Fatalf("tier 0 = %+v, want lz4:2g", tiers[0])
	}
	if tiers[1].Codec.Name != "zstd" || tiers[1].CapacityBytes != 4<<30 {
		t.Fatalf("tier 1 = %+v, want zstd:4g", tiers[1])
	}
	if tiers[2].Kind != backend.TierSSD || tiers[2].CapacityBytes != 0 {
		t.Fatalf("tier 2 = %+v, want an unsized ssd (core.New sizes it)", tiers[2])
	}

	capped, err := ParseTierSpec("zstd:64m,ssd:8g")
	if err != nil {
		t.Fatal(err)
	}
	if capped[1].Kind != backend.TierSSD || capped[1].CapacityBytes != 8<<30 {
		t.Fatalf("capped ssd tier = %+v", capped[1])
	}

	// Errors must name the offending segment.
	bads := map[string]string{
		"lz4:2g,floppy:1g,ssd": `bad tier "floppy:1g"`,
		"lz4,ssd":              `bad tier "lz4"`,
		"lz4:zebra,ssd":        `bad tier "lz4:zebra"`,
		"lz4:0,ssd":            `bad tier "lz4:0"`,
		"ssd,zstd:1g":          `bad tier "zstd:1g"`,
		"":                     "empty tier spec",
		" , ":                  "empty tier spec",
	}
	for in, wantSub := range bads {
		_, err := ParseTierSpec(in)
		if err == nil {
			t.Errorf("ParseTierSpec(%q) accepted", in)
			continue
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Errorf("ParseTierSpec(%q) error %q does not contain %q", in, err, wantSub)
		}
	}
}
