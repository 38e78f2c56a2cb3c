package chaos

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"tmo/internal/backend"
	"tmo/internal/vclock"
	"tmo/internal/workload"
)

// AddScript parses a chaos script and schedules its events. A script is a
// ';'-separated list of clauses, each
//
//	t=<time> <fault> <arg> [for=<dur>] [ramp=<dur>] [every=<dur>] [app=<name>]
//
// where <time> anchors the activation instant relative to run start (Go
// duration syntax), and the fault classes and their argument forms are:
//
//	ssd-slow x<factor>    scale SSD service times (x4 = 4x slower; at least x1)
//	ssd-wear <frac>       drain <frac> of the device's rated pTBW budget
//	ssd-stall <dur>       freeze the device for <dur> per activation
//	cxl-degrade x<factor> scale CXL link latencies (x4 = 4x slower; at least x1)
//	cxl-stall <dur>       freeze the CXL link for <dur> per activation
//	compress x<factor>    scale page compressibility (x0.5 = half as compressible)
//	load x<factor>        scale per-request memory demand (x2 = surge, x0.5 = lull)
//	bloat <size>          grow cold sidecar memory (64MiB, 1GiB, ...)
//	swap-fill <frac>      occupy <frac> of swap capacity with filler
//	capacity x<factor>    shrink host DRAM to <factor> of nominal (x0.6; in (0, 1])
//
// The ssd-* classes need the host's SSD device, cxl-* its far-memory node,
// swap-fill its swap chain and capacity its memory manager; a clause naming
// a surface the host lacks is rejected.
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

	build, ok := faultClasses[name]
	if !ok {
		return fmt.Errorf("unknown fault %q", name)
	}
	set, err := build(e, name, arg, appName)
	if err != nil {
		return err
	}
	e.Add(name, Fault{Kind: name, Set: set}, sched)
	return nil
}

// A surface is the part of the host a fault class perturbs: the phrase
// its missing-surface error names, and whether a host exposes it.
type surface struct {
	what    string
	present func(h *Host) bool
}

var (
	anyHost    = surface{present: func(*Host) bool { return true }}
	ssdDevice  = surface{"a host SSD device", func(h *Host) bool { return h.Device != nil }}
	cxlNode    = surface{"a far-memory node", func(h *Host) bool { return h.CXL != nil }}
	swapChain  = surface{"a swap backend", func(h *Host) bool { return h.Swap != nil }}
	memManager = surface{"a memory manager", func(h *Host) bool { return h.Manager != nil }}
)

// setter is a fault's Set closure.
type setter = func(now vclock.Time, level float64)

// A faultClass builds one catalog entry's fault from a script clause:
// it parses the argument, checks the host exposes the surface the fault
// needs, and returns the fault's Set closure.
type faultClass func(e *Engine, name, arg, app string) (setter, error)

// class assembles a catalog entry from the surface its fault needs, its
// argument parser and the builder of its Set closure. The argument is
// parsed before the surface is checked, so a malformed clause is reported
// as such on any host.
func class[T any](needs surface, parse func(string) (T, error), build func(e *Engine, v T, app string) setter) faultClass {
	return func(e *Engine, name, arg, app string) (setter, error) {
		v, err := parse(arg)
		if err != nil {
			return nil, err
		}
		if !needs.present(&e.host) {
			return nil, fmt.Errorf("%s requires %s", name, needs.what)
		}
		return build(e, v, app), nil
	}
}

// swapFillChunkBytes is the granularity at which swap-fill occupies the
// backend; coarse chunks keep injection cheap at large fills.
const swapFillChunkBytes = 256 << 10

// faultClasses is the fault catalog, keyed by script clause name: the one
// place a fault class is defined.
var faultClasses = map[string]faultClass{
	// ssd-slow scales the host SSD's service times up to factor (>= 1) at
	// full strength — thermal throttling, a failing die, a noisy neighbour
	// saturating the device.
	"ssd-slow": class(ssdDevice, parseSlowdown, func(e *Engine, factor float64, _ string) setter {
		d := e.host.Device
		return func(now vclock.Time, level float64) {
			d.SetDegradation(1 + level*(factor-1))
		}
	}),
	// ssd-wear drains the device's endurance budget by frac of its rated
	// pTBW at full strength. Wear is monotonic: levels only ever add the
	// delta to the highest wear already injected, and restoring the level
	// does not heal the device.
	"ssd-wear": class(ssdDevice, parseFrac, func(e *Engine, frac float64, _ string) setter {
		d := e.host.Device
		rated := d.Spec.EndurancePTBW * 1e15
		injected := int64(0)
		return func(now vclock.Time, level float64) {
			target := int64(level * frac * rated)
			if target > injected {
				d.InjectWear(target - injected)
				injected = target
			}
		}
	}),
	// ssd-stall freezes the device for d on each activation — a firmware
	// garbage-collection pause. The stall length is the fault's, not the
	// schedule's: a recurring schedule fires a pause per activation.
	"ssd-stall": class(ssdDevice, parseDur, func(e *Engine, d vclock.Duration, _ string) setter {
		dev := e.host.Device
		return func(now vclock.Time, level float64) {
			if level > 0 {
				dev.InjectStall(now, d)
			}
		}
	}),
	// cxl-degrade scales the far-memory link's access and migration
	// latencies up to factor (>= 1) at full strength — link retraining, a
	// congested switch, or a flaky retimer on the CXL path.
	"cxl-degrade": class(cxlNode, parseSlowdown, func(e *Engine, factor float64, _ string) setter {
		n := e.host.CXL
		return func(now vclock.Time, level float64) {
			n.SetLinkDegradation(1 + level*(factor-1))
		}
	}),
	// cxl-stall freezes the far-memory link for d on each activation — a
	// link-level recovery event. Migrations in flight across the stall
	// window are aborted by the placement loop rather than charged.
	"cxl-stall": class(cxlNode, parseDur, func(e *Engine, d vclock.Duration, _ string) setter {
		n := e.host.CXL
		return func(now vclock.Time, level float64) {
			if level > 0 {
				n.InjectLinkStall(now, d)
			}
		}
	}),
	// compress scales the named app's (or every app's, for "") page
	// compressibility toward base*factor at full strength — content turning
	// less compressible (factor < 1, e.g. pre-compressed media) or more
	// (factor > 1).
	"compress": class(anyHost, parseFactor, func(e *Engine, factor float64, app string) setter {
		base := map[*workload.App]float64{}
		return func(now vclock.Time, level float64) {
			for _, a := range e.appsNamed(app) {
				b, ok := base[a]
				if !ok {
					b = a.Compressibility()
					base[a] = b
				}
				a.SetCompressibility(b * (1 + level*(factor-1)))
			}
		}
	}),
	// load scales the named app's (or every app's, for "") per-request
	// memory demand toward factor at full strength; factor < 1 models a
	// lull.
	"load": class(anyHost, parseFactor, func(e *Engine, factor float64, app string) setter {
		return func(now vclock.Time, level float64) {
			for _, a := range e.appsNamed(app) {
				a.SetLoadFactor(1 + level*(factor-1))
			}
		}
	}),
	// bloat grows cold anonymous memory in the named app (or the host's
	// first app, for "") up to bytes at full strength — a leaking or
	// bloated sidecar. Restoring the level releases the memory.
	"bloat": class(anyHost, parseSize, func(e *Engine, bytes int64, app string) setter {
		return func(now vclock.Time, level float64) {
			apps := e.appsNamed(app)
			if app == "" && len(apps) > 1 {
				apps = apps[:1]
			}
			for _, a := range apps {
				a.SetBloat(now, int64(level*float64(bytes)))
			}
		}
	}),
	// swap-fill occupies frac of the swap backend's capacity at full
	// strength with incompressible filler — another tenant (or a runaway
	// workload) eating the shared swap device. Restoring the level releases
	// the filler.
	"swap-fill": class(swapChain, parseFrac, func(e *Engine, frac float64, _ string) setter {
		var handles []backend.Handle
		sw := e.host.Swap
		req := []backend.StoreReq{{PageBytes: swapFillChunkBytes, CompressRatio: 1.0}}
		out := make([]backend.StoreResult, 1)
		return func(now vclock.Time, level float64) {
			target := int64(level * frac * float64(sw.CapacityBytes()))
			for int64(len(handles))*swapFillChunkBytes < target {
				if _, err := sw.StoreBatch(now, req, out); err != nil {
					break // backend full: the fill already achieved its point
				}
				handles = append(handles, out[0].Handle)
			}
			for len(handles) > 0 && int64(len(handles)-1)*swapFillChunkBytes >= target {
				sw.Free(handles[len(handles)-1])
				handles = handles[:len(handles)-1]
			}
		}
	}),
	// capacity shrinks host DRAM toward factor (in (0, 1]) of its nominal
	// size at full strength — a ballooning neighbour claiming memory.
	// Restoring the level returns the capacity.
	"capacity": class(memManager, parseShrink, func(e *Engine, factor float64, _ string) setter {
		mgr := e.host.Manager
		base := int64(0)
		return func(now vclock.Time, level float64) {
			if base == 0 {
				base = mgr.Config().CapacityBytes
			}
			mgr.SetCapacity(now, int64(float64(base)*(1+level*(factor-1))))
		}
	}),
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

// parseSlowdown parses a slowdown's x<factor>, which must be at least 1.
func parseSlowdown(s string) (float64, error) {
	f, err := parseFactor(s)
	if err == nil && f < 1 {
		err = fmt.Errorf("slowdown factor must be at least 1, got %v", f)
	}
	return f, err
}

// parseShrink parses capacity's x<factor>, which must lie in (0, 1].
func parseShrink(s string) (float64, error) {
	f, err := parseFactor(s)
	if err == nil && !(f > 0 && f <= 1) {
		err = fmt.Errorf("capacity factor must be in (0, 1], got %v", f)
	}
	return f, err
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
