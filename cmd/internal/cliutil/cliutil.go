// Package cliutil holds the flag-parsing and output helpers shared by the
// simulator commands (tmosim, fleetsim, rolloutsim): duration flags carrying
// virtual time, the offload-mode vocabulary, rollout stage-plan and
// guardrail flag grammars, and the JSON report encoder.
package cliutil

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"tmo/internal/backend"
	"tmo/internal/core"
	"tmo/internal/rollout"
	"tmo/internal/vclock"
)

// ParseDuration converts a duration flag's value ("30m", "90s") to virtual
// time, naming the flag in the error.
func ParseDuration(name, value string) (vclock.Duration, error) {
	d, err := time.ParseDuration(value)
	if err != nil {
		return 0, fmt.Errorf("bad -%s: %w", name, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("bad -%s: negative duration %v", name, d)
	}
	return vclock.FromStd(d), nil
}

// MustDuration is ParseDuration with command-line fatal semantics.
func MustDuration(tool, name, value string) vclock.Duration {
	d, err := ParseDuration(name, value)
	if err != nil {
		Fatal(tool, err)
	}
	return d
}

// ParseMode resolves the offload-mode vocabulary used by every command's
// -mode flag (core.ParseMode owns the name table).
func ParseMode(s string) (core.Mode, error) {
	return core.ParseMode(s)
}

// MustMode is ParseMode with command-line fatal semantics.
func MustMode(tool, s string) core.Mode {
	m, err := ParseMode(s)
	if err != nil {
		Fatal(tool, err)
	}
	return m
}

// ParseStagePlan parses a rollout plan flag: comma-separated stages of the
// form name=frac/bake, with /bake optional (defaulting per stage to
// defBake). Example: "canary=0.1/4,stage-2=0.5/4,fleet=1".
func ParseStagePlan(value string, defBake int) ([]rollout.Stage, error) {
	var plan []rollout.Stage
	for _, part := range strings.Split(value, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		if !ok || name == "" {
			return nil, fmt.Errorf("bad stage %q: want name=frac[/bake]", part)
		}
		fracStr, bakeStr, hasBake := strings.Cut(rest, "/")
		frac, err := strconv.ParseFloat(fracStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad stage %q: frac: %w", part, err)
		}
		bake := defBake
		if hasBake {
			bake, err = strconv.Atoi(bakeStr)
			if err != nil {
				return nil, fmt.Errorf("bad stage %q: bake: %w", part, err)
			}
		}
		plan = append(plan, rollout.Stage{Name: name, Frac: frac, Bake: bake})
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("empty stage plan %q", value)
	}
	return plan, nil
}

// ParseGuardrailSpec parses one -guardrail flag value: an optional
// "device:" prefix selecting a device-class override, then comma-separated
// key=value pairs over the default bundle. Keys: psi (MaxMemPressure), rps
// (MaxRPSDip), oom (MaxOOMKills; -1 = unlimited), latch
// (SwapUtilizationLatch), latched (MaxSwapLatched; -1 = unlimited).
// Example: "F:psi=0.0002,rps=0.25" or "oom=2,latched=1".
func ParseGuardrailSpec(value string) (device string, g rollout.Guardrails, err error) {
	g = rollout.DefaultGuardrails()
	spec := value
	if dev, rest, ok := strings.Cut(value, ":"); ok {
		device = strings.TrimSpace(dev)
		if device == "" {
			return "", g, fmt.Errorf("bad guardrail %q: empty device class before ':'", value)
		}
		spec = rest
	}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return "", g, fmt.Errorf("bad guardrail %q: %q not key=value", value, part)
		}
		switch key {
		case "psi":
			g.MaxMemPressure, err = strconv.ParseFloat(val, 64)
		case "rps":
			g.MaxRPSDip, err = strconv.ParseFloat(val, 64)
		case "oom":
			g.MaxOOMKills, err = strconv.ParseInt(val, 10, 64)
		case "latch":
			g.SwapUtilizationLatch, err = strconv.ParseFloat(val, 64)
		case "latched":
			g.MaxSwapLatched, err = strconv.Atoi(val)
		default:
			return "", g, fmt.Errorf("bad guardrail %q: unknown key %q (psi, rps, oom, latch, latched)", value, key)
		}
		if err != nil {
			return "", g, fmt.Errorf("bad guardrail %q: %s: %w", value, key, err)
		}
	}
	return device, g, nil
}

// ParseBytes parses a byte-size string: a non-negative integer with an
// optional binary suffix k, m, g, or t (case-insensitive).
func ParseBytes(s string) (int64, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "k"):
		mult, s = 1<<10, strings.TrimSuffix(s, "k")
	case strings.HasSuffix(s, "m"):
		mult, s = 1<<20, strings.TrimSuffix(s, "m")
	case strings.HasSuffix(s, "g"):
		mult, s = 1<<30, strings.TrimSuffix(s, "g")
	case strings.HasSuffix(s, "t"):
		mult, s = 1<<40, strings.TrimSuffix(s, "t")
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad size %q: %w", s, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("bad size %q: negative", s)
	}
	return n * mult, nil
}

// ParseTierSpec parses a -tiers flag value into an ordered backend tier
// chain, fastest tier first: comma-separated segments of the form
// codec:capacity. Codecs lz4, zstd, and lzo name compressed tiers and
// require a capacity; "ssd" names the flash swap tier, takes an optional
// capacity ("ssd" alone is sized by core.New at 4x DRAM), and must come
// last. Capacities take binary suffixes k/m/g/t. Example: "lz4:2g,zstd:4g,ssd".
func ParseTierSpec(value string) ([]backend.TierSpec, error) {
	var tiers []backend.TierSpec
	for _, part := range strings.Split(value, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if len(tiers) > 0 && tiers[len(tiers)-1].Kind == backend.TierSSD {
			return nil, fmt.Errorf("bad tier %q: the ssd tier must be last", part)
		}
		name, capStr, hasCap := strings.Cut(part, ":")
		if name == "ssd" {
			ts := backend.TierSpec{Kind: backend.TierSSD}
			if hasCap {
				b, err := ParseBytes(capStr)
				if err != nil {
					return nil, fmt.Errorf("bad tier %q: capacity: %w", part, err)
				}
				ts.CapacityBytes = b
			}
			tiers = append(tiers, ts)
			continue
		}
		codec, ok := backend.CodecByName(name)
		if !ok {
			return nil, fmt.Errorf("bad tier %q: unknown codec %q (lz4, zstd, lzo, ssd)", part, name)
		}
		if !hasCap || strings.TrimSpace(capStr) == "" {
			return nil, fmt.Errorf("bad tier %q: compressed tier needs a capacity (e.g. %s:2g)", part, name)
		}
		b, err := ParseBytes(capStr)
		if err != nil {
			return nil, fmt.Errorf("bad tier %q: capacity: %w", part, err)
		}
		if b <= 0 {
			return nil, fmt.Errorf("bad tier %q: capacity must be positive", part)
		}
		tiers = append(tiers, backend.TierSpec{Kind: backend.TierZswap, Codec: codec, CapacityBytes: b})
	}
	if len(tiers) == 0 {
		return nil, fmt.Errorf("empty tier spec %q", value)
	}
	return tiers, nil
}

// MustTierSpec is ParseTierSpec with command-line fatal semantics.
func MustTierSpec(tool, value string) []backend.TierSpec {
	tiers, err := ParseTierSpec(value)
	if err != nil {
		Fatal(tool, err)
	}
	return tiers
}

// WriteJSON renders v as indented JSON with a trailing newline — the shared
// -json report encoder, so every command's machine output formats alike.
func WriteJSON(w io.Writer, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// EmitJSON is the -json terminal path shared by the commands: WriteJSON to
// stdout with command-line fatal semantics.
func EmitJSON(tool string, v any) {
	if err := WriteJSON(os.Stdout, v); err != nil {
		Fatal(tool, err)
	}
}

// Fatal prints "tool: err" to stderr and exits 1.
func Fatal(tool string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(1)
}
