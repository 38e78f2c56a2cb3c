// Command experiments regenerates the paper's tables and figures on the
// simulated substrate and prints each as a terminal report.
//
// Usage:
//
//	experiments [-quick] [-seed N] [-only fig11,fig12]
//
// Without -only, every figure is regenerated in order. -quick runs each
// experiment at reduced scale (seconds instead of minutes per figure);
// the full scale is what EXPERIMENTS.md records. An unknown -only name is
// an error (exit status 2).
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"tmo/internal/experiments"
)

// exhibit is one named entry of the report.
type exhibit struct {
	name string
	run  func(experiments.Config) experiments.Result
}

// exhibits lists every exhibit in report order.
var exhibits = []exhibit{
	{"fig1", func(experiments.Config) experiments.Result { return experiments.Figure1() }},
	{"fig2", func(c experiments.Config) experiments.Result { return experiments.Figure2(c) }},
	{"fig3", func(c experiments.Config) experiments.Result { return experiments.Figure3(c) }},
	{"fig4", func(c experiments.Config) experiments.Result { return experiments.Figure4(c) }},
	{"fig5", func(c experiments.Config) experiments.Result { return experiments.Figure5(c) }},
	{"fig7", func(experiments.Config) experiments.Result { return experiments.Figure7() }},
	{"fig8", func(c experiments.Config) experiments.Result { return experiments.Figure8(c) }},
	{"fig9", func(c experiments.Config) experiments.Result { return experiments.Figure9(c) }},
	{"fig10", func(c experiments.Config) experiments.Result { return experiments.Figure10(c) }},
	{"fig11", func(c experiments.Config) experiments.Result { return experiments.Figure11(c) }},
	{"fig12", func(c experiments.Config) experiments.Result { return experiments.Figure12(c) }},
	{"fig13", func(c experiments.Config) experiments.Result { return experiments.Figure13(c) }},
	{"fig14", func(c experiments.Config) experiments.Result { return experiments.Figure14(c) }},
	{"table51", func(c experiments.Config) experiments.Result { return experiments.TableCompression(c) }},
	{"abl-policy", func(c experiments.Config) experiments.Result { return experiments.AblationReclaimPolicy(c) }},
	{"abl-limit", func(c experiments.Config) experiments.Result { return experiments.AblationLimitMode(c) }},
	{"abl-controller", func(c experiments.Config) experiments.Result { return experiments.AblationController(c) }},
	{"abl-tiered", func(c experiments.Config) experiments.Result { return experiments.AblationTiered(c) }},
	{"spectrum", func(c experiments.Config) experiments.Result { return experiments.SweepBackends(c) }},
	{"colocation", func(c experiments.Config) experiments.Result { return experiments.Colocation(c) }},
	{"adaptation", func(c experiments.Config) experiments.Result { return experiments.Adaptation(c) }},
	{"abl-readahead", func(c experiments.Config) experiments.Result { return experiments.AblationReadahead(c) }},
	{"autotune", func(c experiments.Config) experiments.Result { return experiments.AutoTune(c) }},
	{"abl-lru", func(c experiments.Config) experiments.Result { return experiments.AblationLRUQuality(c) }},
	{"fleet-het", func(c experiments.Config) experiments.Result { return experiments.FleetHeterogeneity(c) }},
	{"resilience", func(c experiments.Config) experiments.Result { return experiments.Resilience(c) }},
	{"rollout", func(c experiments.Config) experiments.Result { return experiments.RolloutScorecard(c) }},
	{"policy", func(c experiments.Config) experiments.Result { return experiments.PolicyScorecard(c) }},
	{"twinscale", func(c experiments.Config) experiments.Result { return experiments.TwinScaleScorecard(c) }},
	{"placement", func(c experiments.Config) experiments.Result { return experiments.PlacementScorecard(c) }},
	{"abl-batch", func(c experiments.Config) experiments.Result { return experiments.AblationBatch(c) }},
	{"tco", func(c experiments.Config) experiments.Result { return experiments.TCO(c) }},
}

// selectExhibits resolves a comma-separated -only list to exhibits in table
// order; an empty list selects them all. Any name not in the table is an
// error that names it and lists the valid names.
func selectExhibits(only string) ([]exhibit, error) {
	if strings.TrimSpace(only) == "" {
		return exhibits, nil
	}
	want := make([]bool, len(exhibits))
	var unknown, valid []string
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if i := slices.IndexFunc(exhibits, func(e exhibit) bool { return e.name == name }); i >= 0 {
			want[i] = true
		} else {
			unknown = append(unknown, name)
		}
	}
	var out []exhibit
	for i, e := range exhibits {
		if want[i] {
			out = append(out, e)
		}
		valid = append(valid, e.name)
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("unknown exhibit(s) %q in -only (valid: %s)", unknown, strings.Join(valid, ","))
	}
	return out, nil
}

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale")
	seed := flag.Uint64("seed", 42, "experiment seed")
	only := flag.String("only", "", "comma-separated subset, e.g. fig11,fig12,table51")
	flag.Parse()

	selected, err := selectExhibits(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(2)
	}
	cfg := experiments.Config{Quick: *quick, Seed: *seed}
	for _, e := range selected {
		start := time.Now()
		res := e.run(cfg)
		fmt.Printf("==== %s (%.1fs) ====\n%s\n", e.name, time.Since(start).Seconds(), res.Render())
	}
}
