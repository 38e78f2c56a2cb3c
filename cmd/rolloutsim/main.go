// Command rolloutsim drives the fleet control plane: it stages candidate
// policies — a Senpai configuration plus an offload mode — across a
// simulated host population, canary cohort first, then progressively wider
// stages, with guardrails on PSI overshoot, throughput dips against the
// control cohort, OOM kills, and swap exhaustion. Guardrails are judged per
// device-class cohort (override a class with -guardrail "F:psi=0.0002"),
// tripped cohorts revert to baseline where they must, and with -candidates
// K > 1 the stages race K policies on disjoint cohorts and promote the best
// survivor at the final stage. -mode-change stages a policy whose offload
// mode differs from the fleet's: those pushes rebuild hosts at stage
// barriers through the crash/rejoin path.
//
// Usage:
//
//	rolloutsim [-hosts 12 | -fleet-size 100000] [-mode zswap] [-mode-change tiered]
//	           [-window 30s] [-warm 4] [-bake 4] [-plan canary=0.1,stage-2=0.5,fleet=1]
//	           [-candidates 1] [-ratio-mult 10] [-aggressive]
//	           [-tiers lz4:2g,zstd:4g,ssd] [-tier-config lz4:2g,ssd]...
//	           [-devices C,F] [-guardrail F:psi=0.0002] [-crash 3@5m+2m]
//	           [-twin] [-calib-in coeffs.json] [-calib-out coeffs.json]
//	           [-workers N] [-seed 42] [-events] [-json] [-tsdb-out series.jsonl]
//	           [-flight-dir flights/] [-dashboard]
//
// -tier-config (repeatable) races tier-chain configurations as bandit
// candidates: each flag value is one chain (fastest tier first), every
// chain becomes a ModeTiered candidate racing under the same controller
// config, and the final stage promotes the chain with the best lifetime
// weighted savings. -tiers sizes the chain the fleet's own specs carry.
//
// The baseline policy leaves offloading idle, so per-stage savings measure
// each candidate against untouched control hosts. -aggressive turns the
// last candidate deliberately unsafe (the paper's Config B shape, probing
// harder than its probe cap) to demonstrate a guardrail trip.
// -crash host@at+dur schedules host churn; the flag repeats.
//
// Scale: -twin switches to the two-fidelity fleet layout — per device class
// the head/tail hosts stay full page-level simulations and the long tail
// runs calibrated analytical twins (internal/twin), making 100k+-host
// fleets tractable at wall-clock comparable to a few hundred full hosts.
// Coefficients come from -calib-in (a prior artifact); without it the
// command auto-calibrates against the baseline mode, candidate modes, and
// candidate policy ladder, and -calib-out exports the artifact for reuse.
//
// Observability: -tsdb-out exports the run's labeled time-series (host
// vitals, cohort aggregates, controller telemetry); -flight-dir drops a
// flight-recorder bundle per trip/crash/OOM post-mortem; -dashboard renders
// per-cohort sparklines of pressure, throughput, and savings over the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"tmo/cmd/internal/cliutil"
	"tmo/internal/backend"
	"tmo/internal/chaos"
	"tmo/internal/core"
	"tmo/internal/fleet"
	"tmo/internal/rollout"
	"tmo/internal/senpai"
	"tmo/internal/tsdb"
	"tmo/internal/twin"
	"tmo/internal/vclock"
)

// crashFlags collects repeatable -crash host@at+dur values.
type crashFlags []rollout.Crash

func (c *crashFlags) String() string { return fmt.Sprintf("%d crashes", len(*c)) }

func (c *crashFlags) Set(v string) error {
	var host int
	var at, dur string
	hostPart, timePart, ok := strings.Cut(v, "@")
	if ok {
		at, dur, ok = strings.Cut(timePart, "+")
	}
	if !ok {
		return fmt.Errorf("crash %q not in host@at+dur form (e.g. 3@5m+2m)", v)
	}
	if _, err := fmt.Sscanf(hostPart, "%d", &host); err != nil {
		return fmt.Errorf("crash %q: bad host index", v)
	}
	atD, err := cliutil.ParseDuration("crash", at)
	if err != nil {
		return err
	}
	durD, err := cliutil.ParseDuration("crash", dur)
	if err != nil {
		return err
	}
	*c = append(*c, rollout.Crash{
		Host:     host,
		Schedule: chaos.Schedule{At: vclock.Time(0).Add(atD), Dur: durD},
	})
	return nil
}

// tierConfigFlags collects repeatable -tier-config chain values; each one
// becomes a candidate policy racing that tier configuration.
type tierConfigFlags [][]backend.TierSpec

func (t *tierConfigFlags) String() string { return fmt.Sprintf("%d tier configs", len(*t)) }

func (t *tierConfigFlags) Set(v string) error {
	tiers, err := cliutil.ParseTierSpec(v)
	if err != nil {
		return err
	}
	*t = append(*t, tiers)
	return nil
}

// guardrailFlags collects repeatable -guardrail "[device:]k=v,..." values.
type guardrailFlags struct {
	fleet   *rollout.Guardrails
	devices map[string]rollout.Guardrails
}

func (g *guardrailFlags) String() string { return "" }

func (g *guardrailFlags) Set(v string) error {
	device, parsed, err := cliutil.ParseGuardrailSpec(v)
	if err != nil {
		return err
	}
	if device == "" {
		g.fleet = &parsed
		return nil
	}
	if g.devices == nil {
		g.devices = map[string]rollout.Guardrails{}
	}
	g.devices[device] = parsed
	return nil
}

func main() {
	hosts := flag.Int("hosts", 12, "fleet population size")
	modeStr := flag.String("mode", "zswap", "baseline offload mode: file-only, zswap, ssd, tiered, nvm, cxl")
	modeChange := flag.String("mode-change", "", "candidate offload mode (default: same as -mode); differing modes rebuild hosts at stage barriers")
	windowStr := flag.String("window", "30s", "barrier window (virtual time)")
	warm := flag.Int("warm", 4, "warm-up windows before the first stage")
	bake := flag.Int("bake", 4, "default windows each stage must hold its guardrails")
	planStr := flag.String("plan", "canary=0.1,stage-2=0.5,fleet=1", "stage plan as name=frac[/bake],...")
	scale := flag.Float64("scale", 0.5, "workload footprint scale")
	candidates := flag.Int("candidates", 1, "number of candidate policies to race")
	ratioMult := flag.Float64("ratio-mult", 10, "first candidate's reclaim-ratio multiplier over production Config A; each further candidate steps it up")
	aggressive := flag.Bool("aggressive", false, "make the last candidate deliberately unsafe (Config B shape)")
	devicesStr := flag.String("devices", "", "comma-separated device classes to cycle across the fleet (default: the mix's own)")
	fleetSize := flag.Int("fleet-size", 0, "alias for -hosts sized for twin fleets (takes precedence when set)")
	twinFlag := flag.Bool("twin", false, "two-fidelity layout: full-fidelity head/tail anchors per device class, analytical twins for the long tail")
	calibIn := flag.String("calib-in", "", "load twin calibration coefficients from this JSON artifact (implies -twin)")
	calibOut := flag.String("calib-out", "", "write the twin calibration coefficient artifact to this file")
	workers := flag.Int("workers", 0, "host worker pool size (default: NumCPU with -twin, else 4)")
	seed := flag.Uint64("seed", 42, "rollout seed")
	events := flag.Bool("events", false, "print the full rollout event log")
	jsonOut := flag.Bool("json", false, "emit the scorecard as JSON instead of tables")
	tsdbOut := flag.String("tsdb-out", "", "write the observability time-series to this file (.csv for CSV, else JSON Lines)")
	flightDir := flag.String("flight-dir", "", "write flight-recorder bundles (one per trip/crash/OOM post-mortem) into this directory")
	dashboard := flag.Bool("dashboard", false, "render per-cohort sparklines of pressure, throughput, and savings over the stages")
	tiersStr := flag.String("tiers", "", `swap tier chain the fleet's specs carry, replacing the mode's default layout, e.g. "lz4:2g,zstd:4g,ssd" (a bare ssd gets 4x DRAM)`)
	var crashes crashFlags
	flag.Var(&crashes, "crash", "schedule host churn as host@at+dur (repeatable), e.g. 3@5m+2m")
	var guardrails guardrailFlags
	flag.Var(&guardrails, "guardrail", "guardrail bundle as [device:]k=v,... with keys psi, rps, oom, latch, latched (repeatable)")
	var tierConfigs tierConfigFlags
	flag.Var(&tierConfigs, "tier-config", `race this tier chain as a candidate policy (repeatable; replaces the -candidates ladder), e.g. "lz4:2g,zstd:4g,ssd"`)
	flag.Parse()

	if *fleetSize > 0 {
		*hosts = *fleetSize
	}
	mode := cliutil.MustMode("rolloutsim", *modeStr)
	candMode := mode
	if *modeChange != "" {
		candMode = cliutil.MustMode("rolloutsim", *modeChange)
	}
	window := cliutil.MustDuration("rolloutsim", "window", *windowStr)
	plan, err := cliutil.ParseStagePlan(*planStr, *bake)
	if err != nil {
		cliutil.Fatal("rolloutsim", err)
	}

	baseCfg := senpai.ConfigA()
	baseCfg.ReclaimRatio = 0 // idle until the rollout acts
	baseline := rollout.Policy{Name: "baseline", Mode: mode, Config: baseCfg}

	var cands []rollout.Policy
	for i := 0; i < *candidates; i++ {
		c := senpai.ConfigA()
		c.ReclaimRatio *= *ratioMult * float64(1+i)
		name := fmt.Sprintf("cand-%d", i+1)
		if *aggressive && i == *candidates-1 {
			c.ReclaimRatio *= 12
			c.MemPressureThreshold *= 50
			c.IOPressureThreshold *= 10
			c.MaxProbeFrac *= 5
			name = "cand-hot"
		}
		cands = append(cands, rollout.Policy{Name: name, Mode: candMode, Config: c})
	}
	// -tier-config replaces the ratio ladder: every chain races as its own
	// candidate at the ladder's base aggressiveness, so the bandit compares
	// backend shapes rather than controller heat.
	if len(tierConfigs) > 0 {
		candMode = core.ModeTiered
		c := senpai.ConfigA()
		c.ReclaimRatio *= *ratioMult
		cands = cands[:0]
		for i, tc := range tierConfigs {
			cands = append(cands, rollout.Policy{
				Name:   fmt.Sprintf("tiers-%d", i+1),
				Mode:   core.ModeTiered,
				Config: c,
				Tiers:  tc,
			})
		}
	}

	mix := fleet.DefaultMix(mode, *seed)
	var devices []string
	if *devicesStr != "" {
		devices = strings.Split(*devicesStr, ",")
	}
	var fleetTiers []backend.TierSpec
	if *tiersStr != "" {
		fleetTiers = cliutil.MustTierSpec("rolloutsim", *tiersStr)
	}
	specs := make([]fleet.Spec, *hosts)
	for i := range specs {
		s := mix[i%len(mix)]
		s.WithTax = false
		s.Scale = *scale
		s.Seed = *seed + uint64(i)*7919
		s.Tiers = fleetTiers
		if len(devices) > 0 {
			s.Device = strings.TrimSpace(devices[i%len(devices)])
		}
		specs[i] = s
	}

	cfg := rollout.Config{
		Hosts:            specs,
		Baseline:         baseline,
		Candidates:       cands,
		Plan:             plan,
		DeviceGuardrails: guardrails.devices,
		Window:           window,
		WarmWindows:      *warm,
		Workers:          *workers,
		Seed:             *seed,
		Crashes:          crashes,
	}
	if guardrails.fleet != nil {
		cfg.Guardrails = *guardrails.fleet
	}

	useTwin := *twinFlag || *calibIn != ""
	var coeffs *twin.CoefficientSet
	if *calibIn != "" {
		f, err := os.Open(*calibIn)
		if err != nil {
			cliutil.Fatal("rolloutsim", err)
		}
		coeffs, err = twin.ReadJSON(f)
		f.Close()
		if err != nil {
			cliutil.Fatal("rolloutsim", err)
		}
	} else if useTwin || *calibOut != "" {
		// Auto-calibrate: one representative spec per device class, every
		// mode a policy could push, and the candidate ladder itself as probe
		// rungs (bracketed by the default ladder so the surface covers policy
		// space beyond the candidates).
		byClass, classes := fleet.DeviceCohorts(specs)
		calSpecs := make([]fleet.Spec, 0, len(classes))
		for _, d := range classes {
			s := specs[byClass[d][0]]
			s.Seed = 0
			calSpecs = append(calSpecs, s)
		}
		modes := []core.Mode{mode}
		if candMode != mode {
			modes = append(modes, candMode)
		}
		probes := twin.DefaultProbes(baseCfg)
		for _, c := range cands {
			probes = append(probes, c.Config)
		}
		// Candidate chain layouts calibrate their own signature-keyed
		// surfaces so twin cohorts racing them are judged on fits measured
		// under the layout they push.
		var calTiers [][]backend.TierSpec
		for _, c := range cands {
			calTiers = append(calTiers, c.Tiers)
		}
		calStart := time.Now()
		coeffs = twin.Calibrate(twin.CalibrateConfig{
			Specs:    calSpecs,
			Modes:    modes,
			Tiers:    calTiers,
			Baseline: baseCfg,
			Probes:   probes,
			Window:   window,
			Seed:     *seed,
		})
		if !*jsonOut {
			fmt.Printf("rolloutsim: calibrated %d twin surfaces over %d device classes in %.1fs\n",
				len(coeffs.Surfaces), len(classes), time.Since(calStart).Seconds())
		}
	}
	if *calibOut != "" {
		f, err := os.Create(*calibOut)
		if err != nil {
			cliutil.Fatal("rolloutsim", err)
		}
		if err := coeffs.WriteJSON(f); err != nil {
			cliutil.Fatal("rolloutsim", err)
		}
		if err := f.Close(); err != nil {
			cliutil.Fatal("rolloutsim", err)
		}
		if !*jsonOut {
			fmt.Printf("wrote twin calibration artifact to %s\n", *calibOut)
		}
	}
	if useTwin {
		cfg.Twin = &rollout.TwinConfig{Coeffs: coeffs}
		if cfg.Workers <= 0 {
			cfg.Workers = runtime.NumCPU()
		}
	}

	// Any observability output wants the plane attached; the dashboard and
	// flight bundles work off an in-memory store even without -tsdb-out.
	var db *tsdb.DB
	if *tsdbOut != "" || *flightDir != "" || *dashboard {
		db = tsdb.New(tsdb.Config{})
		cfg.Obs = &rollout.ObsConfig{DB: db, ScrapeHosts: true}
	}

	if !*jsonOut {
		fmt.Printf("rolloutsim: %d hosts on %s, window %s, plan", *hosts, mode, window)
		for _, st := range plan {
			fmt.Printf(" %s=%.0f%%", st.Name, 100*st.Frac)
		}
		fmt.Printf(", %d candidate(s) on %s\n", len(cands), candMode)
		for _, c := range cands {
			if len(c.Tiers) > 0 {
				fmt.Printf("  %s: ratio %.4f (threshold %.4f), backend %s\n",
					c.Name, c.Config.ReclaimRatio, c.Config.MemPressureThreshold, fleet.TierSignature(c.Tiers))
				continue
			}
			fmt.Printf("  %s: ratio %.4f (threshold %.4f)\n", c.Name, c.Config.ReclaimRatio, c.Config.MemPressureThreshold)
		}
		fmt.Println()
	}

	runStart := time.Now()
	r := rollout.New(cfg).Run()
	wall := time.Since(runStart)

	if *tsdbOut != "" {
		cliutil.MustExportSeries("rolloutsim", *tsdbOut, db)
	}
	if *flightDir != "" {
		paths := cliutil.MustWriteFlightBundles("rolloutsim", *flightDir, r.Flights)
		if !*jsonOut {
			fmt.Printf("wrote %d flight bundle(s) to %s\n", len(paths), *flightDir)
		}
	}

	if *jsonOut {
		cliutil.EmitJSON("rolloutsim", r)
		return
	}
	fmt.Println(r.Render())
	fmt.Printf("wall-clock: %.1fs for %d hosts (%s virtual)\n", wall.Seconds(), len(cfg.Hosts), r.Duration)
	if *dashboard {
		fmt.Println("cohort dashboard (per candidate/stage):")
		fmt.Print(tsdb.Dashboard(db, []string{
			"rollout.cohort.mem_pressure",
			"rollout.cohort.rps_ratio",
			"rollout.cohort.savings_frac",
		}, 64, 8))
	}
	if *events {
		fmt.Printf("\nrollout event log:\n%s", r.EventLog())
	}
}
