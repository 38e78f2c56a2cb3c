package chaos

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"tmo/internal/vclock"
)

// AddScript parses a chaos script and schedules its events. A script is a
// ';'-separated list of clauses, each
//
//	t=<time> <fault> <arg> [for=<dur>] [ramp=<dur>] [every=<dur>] [app=<name>]
//
// where <time> anchors the activation instant relative to run start (Go
// duration syntax), and the fault classes and their argument forms are:
//
//	ssd-slow x<factor>   scale SSD service times (x4 = 4x slower)
//	ssd-wear <frac>      drain <frac> of the device's rated pTBW budget
//	ssd-stall <dur>      freeze the device for <dur> per activation
//	cxl-degrade x<factor> scale CXL link latencies (x4 = 4x slower)
//	cxl-stall <dur>      freeze the CXL link for <dur> per activation
//	compress x<factor>   scale page compressibility (x0.5 = half as compressible)
//	load x<factor>       scale per-request memory demand (x2 = surge, x0.5 = lull)
//	bloat <size>         grow cold sidecar memory (64MiB, 1GiB, ...)
//	swap-fill <frac>     occupy <frac> of swap capacity with filler
//	capacity x<factor>   shrink host DRAM to <factor> of nominal (x0.6)
//
// `for=` bounds the active window (omitted = permanent), `ramp=` rises
// linearly instead of switching, `every=` re-arms after seeded random gaps
// with that mean, and `app=` scopes workload faults to one profile name.
//
// Example: "t=2m ssd-slow x4 for=5m; t=10m load x2 ramp=1m"
func (e *Engine) AddScript(script string) error {
	for _, clause := range strings.Split(script, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		if err := e.addClause(clause); err != nil {
			return fmt.Errorf("chaos: clause %q: %w", clause, err)
		}
	}
	return nil
}

// addClause parses and schedules one script clause.
func (e *Engine) addClause(clause string) error {
	fields := strings.Fields(clause)
	if len(fields) < 2 {
		return errors.New("want t=<time> <fault> ...")
	}
	if !strings.HasPrefix(fields[0], "t=") {
		return fmt.Errorf("clause must start with t=<time>, got %q", fields[0])
	}
	at, err := parseDur(fields[0][2:])
	if err != nil {
		return err
	}
	name := fields[1]

	var arg, appName string
	sched := Schedule{At: vclock.Time(0).Add(at)}
	for _, tok := range fields[2:] {
		if k, v, ok := strings.Cut(tok, "="); ok {
			switch k {
			case "for":
				sched.Dur, err = parseDur(v)
			case "ramp":
				sched.Ramp, err = parseDur(v)
			case "every":
				sched.Every, err = parseDur(v)
			case "app":
				appName = v
			default:
				err = fmt.Errorf("unknown option %q", k)
			}
			if err != nil {
				return err
			}
			continue
		}
		if arg != "" {
			return fmt.Errorf("unexpected token %q", tok)
		}
		arg = tok
	}

	f, err := e.buildFault(name, arg, appName)
	if err != nil {
		return err
	}
	e.Add(name, f, sched)
	return nil
}

// buildFault constructs the fault a clause names, validating that the host
// exposes the surface it needs.
func (e *Engine) buildFault(name, arg, appName string) (Fault, error) {
	needDevice := func() error {
		if e.host.Device == nil {
			return fmt.Errorf("%s requires a host SSD device", name)
		}
		return nil
	}
	switch name {
	case "ssd-slow":
		factor, err := parseFactor(arg)
		if err != nil {
			return nil, err
		}
		if err := needDevice(); err != nil {
			return nil, err
		}
		return e.SSDSlow(factor), nil
	case "ssd-wear":
		frac, err := parseFrac(arg)
		if err != nil {
			return nil, err
		}
		if err := needDevice(); err != nil {
			return nil, err
		}
		return e.SSDWear(frac), nil
	case "ssd-stall":
		d, err := parseDur(arg)
		if err != nil {
			return nil, err
		}
		if err := needDevice(); err != nil {
			return nil, err
		}
		return e.SSDStall(d), nil
	case "cxl-degrade":
		factor, err := parseFactor(arg)
		if err != nil {
			return nil, err
		}
		if e.host.CXL == nil {
			return nil, errors.New("cxl-degrade requires a far-memory node")
		}
		return e.CXLDegrade(factor), nil
	case "cxl-stall":
		d, err := parseDur(arg)
		if err != nil {
			return nil, err
		}
		if e.host.CXL == nil {
			return nil, errors.New("cxl-stall requires a far-memory node")
		}
		return e.CXLStall(d), nil
	case "compress":
		factor, err := parseFactor(arg)
		if err != nil {
			return nil, err
		}
		return e.CompressDrift(appName, factor), nil
	case "load":
		factor, err := parseFactor(arg)
		if err != nil {
			return nil, err
		}
		return e.LoadSurge(appName, factor), nil
	case "bloat":
		bytes, err := parseSize(arg)
		if err != nil {
			return nil, err
		}
		return e.Bloat(appName, bytes), nil
	case "swap-fill":
		frac, err := parseFrac(arg)
		if err != nil {
			return nil, err
		}
		if e.host.Swap == nil {
			return nil, errors.New("swap-fill requires a swap backend")
		}
		return e.SwapFill(frac), nil
	case "capacity":
		factor, err := parseFactor(arg)
		if err != nil {
			return nil, err
		}
		if !(factor > 0 && factor <= 1) {
			return nil, fmt.Errorf("capacity factor must be in (0, 1], got %v", factor)
		}
		if e.host.Manager == nil {
			return nil, errors.New("capacity requires a memory manager")
		}
		return e.CapacityLoss(factor), nil
	}
	return nil, fmt.Errorf("unknown fault %q", name)
}

// parseDur parses a Go duration into virtual time.
func parseDur(s string) (vclock.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	return vclock.FromStd(d), nil
}

// parseFactor parses an "x4"- or "x0.5"-style multiplier: finite and
// non-negative.
func parseFactor(s string) (float64, error) {
	if !strings.HasPrefix(s, "x") {
		return 0, fmt.Errorf("want x<factor>, got %q", s)
	}
	f, ok := parseNonNeg(s[1:])
	if !ok {
		return 0, fmt.Errorf("bad factor %q", s)
	}
	return f, nil
}

// parseFrac parses a bare finite non-negative float (fractions may exceed
// 1: ssd-wear 1.5 drains one and a half lifetimes).
func parseFrac(s string) (float64, error) {
	f, ok := parseNonNeg(s)
	if !ok {
		return 0, fmt.Errorf("bad fraction %q", s)
	}
	return f, nil
}

// parseNonNeg parses a finite non-negative float; ParseFloat alone would
// accept NaN and ±Inf.
func parseNonNeg(s string) (float64, bool) {
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil && f >= 0 && !math.IsInf(f, 1)
}

// sizeSuffixes maps size-literal suffixes to byte multipliers, longest
// first so MiB is tried before B.
var sizeSuffixes = []struct {
	suffix string
	mult   int64
}{
	{"GiB", 1 << 30}, {"MiB", 1 << 20}, {"KiB", 1 << 10},
	{"GB", 1e9}, {"MB", 1e6}, {"KB", 1e3},
	{"G", 1 << 30}, {"M", 1 << 20}, {"K", 1 << 10},
	{"B", 1},
}

// parseSize parses a byte-size literal like "64MiB" or "1G" into a
// non-negative int64 byte count.
func parseSize(s string) (int64, error) {
	for _, suf := range sizeSuffixes {
		if strings.HasSuffix(s, suf.suffix) {
			f, ok := parseNonNeg(strings.TrimSuffix(s, suf.suffix))
			if b := f * float64(suf.mult); ok && b < math.MaxInt64 {
				return int64(b), nil
			}
			break
		}
	}
	return 0, fmt.Errorf("bad size %q (want e.g. 64MiB, 1GiB)", s)
}
