package rollout

import (
	"bytes"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tmo/internal/chaos"
	"tmo/internal/core"
	"tmo/internal/telemetry"
	"tmo/internal/trace"
	"tmo/internal/tsdb"
	"tmo/internal/vclock"
)

// obsConfig attaches a fresh observability plane to a rollout config.
func obsConfig(cfg Config) (Config, *tsdb.DB) {
	db := tsdb.New(tsdb.Config{})
	cfg.Obs = &ObsConfig{DB: db, ScrapeHosts: true}
	return cfg, db
}

// exportAll renders everything the plane produced — the TSDB export plus
// every flight bundle — as one byte string for identity comparison.
func exportAll(t *testing.T, db *tsdb.DB, r Result) string {
	t.Helper()
	var b bytes.Buffer
	if err := db.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	for _, fb := range r.Flights {
		b.WriteString("== " + fb.Filename() + "\n")
		if err := fb.WriteJSONL(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestForensicsLoop pins the acceptance scenario: an aggressive policy that
// trips the PSI guardrail at canary must ship a flight bundle whose samples
// show the pressure overshoot building before the trip, and the SLO burn
// monitor must fire at least one window before the barrier verdict.
func TestForensicsLoop(t *testing.T) {
	cfg, db := obsConfig(testConfig(aggressivePolicy()))
	// Pressure under the aggressive candidate ramps across canary windows
	// (~0.010, ~0.014, ~0.021). A budget of 0.013 puts the crossing inside
	// the ramp: the burn monitor judges window means and fires at window 2,
	// while the guardrail judges the stage-cumulative mean and only trips
	// at window 3 — the early warning the plane exists to provide.
	cfg.Guardrails.MaxMemPressure = 0.013
	c := New(cfg)
	r := c.Run()
	if r.State != StateRolledBack || r.TrippedGuardrail != "psi" {
		t.Fatalf("state=%s tripped=%q, want psi rollback; log:\n%s",
			r.State, r.TrippedGuardrail, r.EventLog())
	}

	// The early warning precedes the verdict by at least one window.
	var alertT, tripT vclock.Time = -1, -1
	for _, e := range r.Events {
		if e.Cat == trace.KindSLOBurn && alertT < 0 && e.Name == "psi-burn" {
			alertT = e.Start
		}
		if e.Cat == trace.KindRolloutTrip && tripT < 0 {
			tripT = e.Start
		}
	}
	if alertT < 0 || tripT < 0 {
		t.Fatalf("missing slo alert (%v) or trip (%v) in log:\n%s", alertT, tripT, r.EventLog())
	}
	if alertT > tripT.Add(-cfg.Window) {
		t.Fatalf("slo alert at %s did not lead trip at %s by a window; log:\n%s",
			alertT, tripT, r.EventLog())
	}
	if c.Telemetry().Counter("slo.burn_alerts",
		telemetry.Label{Key: "monitor", Value: "psi-burn"}).Value() == 0 {
		t.Fatalf("slo.burn_alerts counter not incremented")
	}

	// The tripped cohort shipped its post-mortem, and its samples visibly
	// show the overshoot: pressure climbing through the guardrail budget
	// before the dump instant.
	var bundle *tsdb.FlightBundle
	for i := range r.Flights {
		if r.Flights[i].Reason == "guardrail-psi" {
			bundle = &r.Flights[i]
			break
		}
	}
	if bundle == nil {
		t.Fatalf("no guardrail-psi flight bundle; flights: %+v", r.Flights)
	}
	if len(bundle.Samples) < 2 {
		t.Fatalf("bundle too thin: %+v", bundle.Samples)
	}
	budget := cfg.Guardrails.MaxMemPressure
	last := bundle.Samples[len(bundle.Samples)-1]
	first := bundle.Samples[0]
	if last.Values["pressure"] <= budget {
		t.Fatalf("final pre-trip pressure %v not over budget %v", last.Values["pressure"], budget)
	}
	if last.Values["pressure"] <= first.Values["pressure"] {
		t.Fatalf("pressure did not build toward the trip: first %v last %v",
			first.Values["pressure"], last.Values["pressure"])
	}
	// The bundle's event tail carries the early warning for the post-mortem.
	sawAlert := false
	for _, e := range bundle.Events {
		if e.Cat == trace.KindSLOBurn {
			sawAlert = true
		}
	}
	if !sawAlert {
		t.Fatalf("bundle events lack the slo alert: %+v", bundle.Events)
	}

	// The cohort pressure series the monitor judged is in the store and
	// crosses the budget before the trip.
	const cohortID = `rollout.cohort.mem_pressure{candidate="candidate",stage="canary"}`
	var cohort *tsdb.Series
	for _, s := range db.Select("rollout.cohort.mem_pressure") {
		if s.ID() == cohortID {
			cohort = &s
		}
	}
	if cohort == nil {
		t.Fatalf("cohort pressure series %s missing; metrics: %v", cohortID, db.Metrics())
	}
	crossed := vclock.Time(-1)
	for _, p := range cohort.Points {
		if p.V > budget {
			crossed = p.T
			break
		}
	}
	if crossed < 0 || crossed > tripT {
		t.Fatalf("cohort series crossing at %v vs trip at %v", crossed, tripT)
	}

	// Host scrapes landed too (ScrapeHosts).
	if len(db.Select("host.resident_bytes")) == 0 {
		t.Fatalf("host registry scrape missing; metrics: %v", db.Metrics())
	}
}

// TestObsDeterministicUnderChurn extends the byte-identity pin to the
// observability plane: two identical churned bandit runs must produce
// byte-identical TSDB exports and flight-recorder dumps.
func TestObsDeterministicUnderChurn(t *testing.T) {
	build := func() (Config, *tsdb.DB) {
		cfg := banditConfig()
		cfg.Crashes = []Crash{{
			Host:     4,
			Schedule: chaos.Schedule{At: vclock.Time(4 * cfg.Window), Dur: 2 * cfg.Window},
		}}
		return obsConfig(cfg)
	}
	cfgA, dbA := build()
	cfgB, dbB := build()
	ra := New(cfgA).Run()
	rb := New(cfgB).Run()
	if ra.EventLog() != rb.EventLog() {
		t.Fatalf("event logs differ:\n--- a ---\n%s\n--- b ---\n%s", ra.EventLog(), rb.EventLog())
	}
	ea, eb := exportAll(t, dbA, ra), exportAll(t, dbB, rb)
	if ea != eb {
		// Find the first divergence for a readable failure.
		la, lb := strings.Split(ea, "\n"), strings.Split(eb, "\n")
		for i := range la {
			if i >= len(lb) || la[i] != lb[i] {
				t.Fatalf("observability exports diverge at line %d:\na: %s\nb: %s", i, la[i], lb[i])
			}
		}
		t.Fatalf("observability exports differ in length: %d vs %d lines", len(la), len(lb))
	}
	// Churn produced a crash post-mortem alongside the guardrail one, and
	// the bundles carry distinct deterministic filenames.
	reasons := map[string]bool{}
	names := map[string]bool{}
	for _, fb := range ra.Flights {
		reasons[fb.Reason] = true
		if names[fb.Filename()] {
			t.Fatalf("duplicate bundle filename %q", fb.Filename())
		}
		names[fb.Filename()] = true
	}
	if !reasons["crash"] {
		t.Fatalf("no crash bundle; reasons: %v", reasons)
	}
	var csvA bytes.Buffer
	if err := dbA.WriteCSV(&csvA); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(csvA.String(), "metric,labels,t_us,value\n") {
		t.Fatalf("CSV export malformed")
	}
}

// TestFlightBundleWindows pins how a bundle is cut from the store: it ships
// the host's current incarnation only, as consecutive windows oldest first
// that end at the dump window, capped at the last flightWindows. Host 1
// lives longer than the cap before its first crash, then rejoins and
// crashes again; host 0 is rebuilt by the canary's mode-changing push and
// then crashes.
func TestFlightBundleWindows(t *testing.T) {
	cfg := testConfig(Policy{Name: "tiered", Mode: core.ModeTiered, Config: safeCandidate()})
	cfg.WarmWindows = flightWindows + 2
	crash := func(host, at int) Crash {
		return Crash{Host: host, Schedule: chaos.Schedule{At: vclock.Time(at) * vclock.Time(cfg.Window), Dur: cfg.Window}}
	}
	cfg.Crashes = []Crash{crash(1, flightWindows+1), crash(0, flightWindows+4), crash(1, flightWindows+7)}
	cfg, _ = obsConfig(cfg)
	r := New(cfg).Run()

	// began[host] lists the rejoin and rebuild events that started each of
	// the host's incarnations after the first.
	began := map[string][]trace.Record{}
	for _, e := range r.Events {
		if e.Cat == trace.KindHostRejoin || e.Cat == trace.KindHostRebuild {
			began[e.Name] = append(began[e.Name], e)
		}
	}
	seen := map[string]int{}
	for _, b := range r.Flights {
		if b.Reason != "crash" {
			continue
		}
		// An incarnation is first observed at the barrier after the one
		// that began it; incarnation 0 at window 1.
		begin, kind := 0, trace.Kind("first life")
		if b.Incarnation > 0 {
			e := began[b.Host][b.Incarnation-1]
			begin, kind = int(e.Start/vclock.Time(cfg.Window)), e.Cat
		}
		first := max(begin+1, b.Window-flightWindows+1)
		if len(b.Samples) != b.Window-first+1 {
			t.Fatalf("%s: %d samples, want windows %d..%d; log:\n%s",
				b.Filename(), len(b.Samples), first, b.Window, r.EventLog())
		}
		for i, s := range b.Samples {
			if s.Window != first+i || s.T != vclock.Time(s.Window)*vclock.Time(cfg.Window) {
				t.Fatalf("%s: sample %d is window %d at %v, want window %d", b.Filename(), i, s.Window, s.T, first+i)
			}
		}
		if first > begin+1 {
			kind = "capped"
		}
		seen[string(kind)]++
	}
	want := map[string]int{"capped": 1, string(trace.KindHostRejoin): 1, string(trace.KindHostRebuild): 1}
	if !maps.Equal(seen, want) {
		t.Fatalf("crash bundles by incarnation start: %v, want %v; log:\n%s", seen, want, r.EventLog())
	}
}

// TestGuardrailTripLabels pins the satellite: trip counters break down by
// guardrail, candidate, and device.
func TestGuardrailTripLabels(t *testing.T) {
	c := New(testConfig(aggressivePolicy()))
	c.Run()
	snap := c.Telemetry().Snapshot()
	m, ok := snap.Get("rollout.guardrail_trips",
		telemetry.Label{Key: "guardrail", Value: "psi"},
		telemetry.Label{Key: "candidate", Value: "candidate"},
		telemetry.Label{Key: "device", Value: "C"})
	if !ok || m.Value < 1 {
		t.Fatalf("labeled trip counter missing; snapshot: %+v", snap.Metrics)
	}
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

// goldenConfig is a churned three-candidate race across three device
// classes.
func goldenConfig() Config {
	cfg := banditConfig()
	cfg.Hosts = testFleet(8)
	// C and F race with no control host of their own (device-matched
	// control falls back to fleet-wide); G is control until the fleet stage.
	for i, d := range []string{"C", "F", "C", "F", "C", "F", "G", "G"} {
		cfg.Hosts[i].Device = d
	}
	cfg.Plan[0].Frac = 0.75
	cfg.Crashes = []Crash{{
		Host:     4,
		Schedule: chaos.Schedule{At: vclock.Time(3 * cfg.Window), Dur: 2 * cfg.Window},
	}}
	return cfg
}

// TestRolloutExportsGolden pins the rollout's rendered outputs — event
// log, scorecard, TSDB export and flight bundles — against
// testdata/rollout-exports.txt. Every rollout float reaches the TSDB export
// through %g, so a refactor that reorders one sum moves the file; the
// determinism tests, which compare two runs of the same code, cannot catch
// that.
func TestRolloutExportsGolden(t *testing.T) {
	cfg, db := obsConfig(goldenConfig())
	r := New(cfg).Run()
	checkGolden(t, "rollout-exports.txt", r.EventLog()+r.Render()+exportAll(t, db, r))
}
