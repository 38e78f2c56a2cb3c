package chaos

import (
	"math"
	"strings"
	"testing"
	"unicode"

	"tmo/internal/backend"
	"tmo/internal/mm"
)

// fullHost exposes every surface a script clause can target, so parsing
// reaches each fault's builder.
func fullHost() Host {
	spec, _ := backend.DeviceByModel("C")
	dev := backend.NewSSDDevice(spec, 1)
	cxl := backend.SpecCXLNode
	cxl.CapacityBytes = 1 << 30
	swap := backend.NewTierChain([]backend.TierSpec{{Kind: backend.TierZswap, Codec: backend.CodecZstd,
		CapacityBytes: 1 << 30}}, nil, 0, 2)
	return Host{
		Device:  dev,
		Manager: mm.NewManager(mm.Config{CapacityBytes: 1 << 30, FS: backend.NewFilesystem(dev)}),
		Swap:    swap,
		CXL:     backend.NewCXLNode(cxl),
		Seed:    1,
	}
}

// scriptCases are the clauses of the package's table tests: every fault
// class well-formed, then the malformed shapes TestScriptErrors rejects.
var scriptCases = []string{
	"t=30s ssd-stall 300ms every=60s; t=1m ssd-slow x4 for=90s; t=1m ssd-wear 0.2 ramp=1m",
	"t=2m load x1.5 ramp=30s for=1m; t=2m30s compress x0.5 for=1m; t=3m capacity x0.8 for=1m",
	"t=3m30s bloat 4MiB for=1m; t=4m swap-fill 0.2 for=30s",
	"t=2m cxl-degrade x4 for=2m; t=5m cxl-stall 50ms app=feed",
	"t=1m nosuch x2", "ssd-slow x2", "t=-1m load x2", "t=1m load x2 for=bogus", "t=1m capacity x1.5",
	"t=1m load xNaN", "t=1m compress x+Inf", "t=1m bloat NaNMiB", "t=1m capacity xNaN",
	"t=1m ssd-slow x0.5", "t=1m cxl-degrade x0.9",
}

// TestScriptCasesCoverCatalog: the table tests and FuzzAddScript's seeds
// name every fault class in the catalog, so a new class cannot skip them.
func TestScriptCasesCoverCatalog(t *testing.T) {
	named := map[string]bool{}
	for _, script := range scriptCases {
		for _, clause := range strings.Split(script, ";") {
			if f := strings.Fields(clause); len(f) > 1 {
				named[f[1]] = true
			}
		}
	}
	for name := range faultClasses {
		if !named[name] {
			t.Errorf("scriptCases never names fault class %q", name)
		}
	}
}

// TestParsersRejectNonFinite: NaN, ±Inf, and byte counts past int64 are
// refused by every numeric argument form, and their well-formed siblings
// still parse.
func TestParsersRejectNonFinite(t *testing.T) {
	e := NewEngine(fullHost())
	for _, bad := range []string{
		"t=1m load xNaN",
		"t=1m compress x+Inf",
		"t=1m ssd-slow xInf",
		"t=1m cxl-degrade x-Inf",
		"t=1m ssd-wear NaN",
		"t=1m swap-fill +Inf",
		"t=1m bloat NaNMiB",
		"t=1m bloat InfGiB",
		"t=1m bloat 1e30GiB",
		"t=1m capacity xNaN",
	} {
		if err := e.AddScript(bad); err == nil {
			t.Errorf("AddScript(%q) succeeded, want error", bad)
		}
	}
	if len(e.events) != 0 {
		t.Fatalf("rejected clauses left %d events armed", len(e.events))
	}
	for _, good := range []string{"t=1m load x2", "t=1m capacity x0.5", "t=1m bloat 4MiB", "t=1m swap-fill 0.2"} {
		if err := e.AddScript(good); err != nil {
			t.Errorf("AddScript(%q): %v", good, err)
		}
	}
}

// FuzzAddScript: the script parser never panics, and every number it
// accepts is finite and inside its documented range — factors, fractions,
// and sizes non-negative, durations non-negative.
func FuzzAddScript(f *testing.F) {
	for _, s := range scriptCases {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, script string) {
		e := NewEngine(fullHost())
		if err := e.AddScript(script); err == nil {
			for _, ev := range e.events {
				if s := ev.sched; s.At < 0 || s.Dur < 0 || s.Ramp < 0 || s.Every < 0 {
					t.Fatalf("%q scheduled a negative time: %+v", script, s)
				}
			}
		}
		inRange := func(v float64) bool { return v >= 0 && !math.IsInf(v, 0) } // false for NaN
		for _, tok := range strings.FieldsFunc(script, func(r rune) bool {
			return unicode.IsSpace(r) || r == ';' || r == '='
		}) {
			if v, err := parseFactor(tok); err == nil && !inRange(v) {
				t.Fatalf("parseFactor(%q) = %v", tok, v)
			}
			if v, err := parseFrac(tok); err == nil && !inRange(v) {
				t.Fatalf("parseFrac(%q) = %v", tok, v)
			}
			if v, err := parseSize(tok); err == nil && v < 0 {
				t.Fatalf("parseSize(%q) = %v", tok, v)
			}
			if d, err := parseDur(tok); err == nil && d < 0 {
				t.Fatalf("parseDur(%q) = %v", tok, d)
			}
		}
	})
}
