// Command experiments regenerates the paper's tables and figures on the
// simulated substrate and prints each as a terminal report.
//
// Usage:
//
//	experiments [-quick] [-seed 42,123,456] [-only fig11,fig12]
//
// Without -only, every figure is regenerated in order. -quick runs each
// experiment at reduced scale (seconds instead of minutes per figure);
// the full scale is what EXPERIMENTS.md records. An unknown -only name or a
// malformed -seed list is an error (exit status 2).
//
// An exhibit that states claims (experiments.Claim) prints one line per
// claim after its report: the claim, whether it holds, and its margin.
// -seed takes a comma-separated list: each exhibit runs once per seed, and
// with more than one seed the run ends with a claim x seed table of
// margins. Any claim that fails at any seed is named on stderr and makes
// the exit status 1.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"tmo/internal/experiments"
	"tmo/internal/textplot"
)

// claimer is a result that states claims.
type claimer interface{ Claims() []experiments.Claim }

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
	{"protection", func(c experiments.Config) experiments.Result { return experiments.Protection(c) }},
}

// selectExhibits resolves a comma-separated -only list to entries of table
// in table order; an empty list selects them all. Any name not in the table
// is an error that names it and lists the valid names.
func selectExhibits(table []exhibit, only string) ([]exhibit, error) {
	if strings.TrimSpace(only) == "" {
		return table, nil
	}
	want := make([]bool, len(table))
	var unknown, valid []string
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		if i := slices.IndexFunc(table, func(e exhibit) bool { return e.name == name }); i >= 0 {
			want[i] = true
		} else {
			unknown = append(unknown, name)
		}
	}
	var out []exhibit
	for i, e := range table {
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

// parseSeeds parses -seed: a comma-separated list of one or more unsigned
// integers.
func parseSeeds(list string) ([]uint64, error) {
	var seeds []uint64
	for _, f := range strings.Split(list, ",") {
		s, err := strconv.ParseUint(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-seed %q: want a comma-separated list of unsigned integers", list)
		}
		seeds = append(seeds, s)
	}
	return seeds, nil
}

// verdict renders a claim as holds or FAILS, then its margin unless it is
// a yes/no claim.
func verdict(c experiments.Claim) string {
	v := "FAILS"
	if c.Holds {
		v = "holds"
	}
	if math.IsNaN(c.Margin) {
		return v
	}
	return fmt.Sprintf("%s %+.3g", v, c.Margin)
}

// cell renders a claim for the claim x seed table: just the margin when a
// claim that has one holds, else its verdict.
func cell(c experiments.Claim) string {
	if c.Holds && !math.IsNaN(c.Margin) {
		return fmt.Sprintf("%+.3g", c.Margin)
	}
	return verdict(c)
}

// run is the command: it parses args, prints the selected exhibits of table
// to stdout, and returns the exit status — 2 for bad flags, 1 when a claim
// fails, each failure named on stderr.
func run(args []string, table []exhibit, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run at reduced scale")
	seedList := fs.String("seed", "42", "comma-separated experiment seeds; each exhibit runs once per seed")
	only := fs.String("only", "", "comma-separated subset, e.g. fig11,fig12,table51")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	seeds, err := parseSeeds(*seedList)
	if err == nil {
		table, err = selectExhibits(table, *only)
	}
	if err != nil {
		fmt.Fprintln(stderr, "experiments:", err)
		return 2
	}
	status := 0
	grid := [][]string{{"claim"}} // claim x seed margins
	for _, s := range seeds {
		grid[0] = append(grid[0], fmt.Sprintf("seed %d", s))
	}
	for _, e := range table {
		var rows [][]string
		for i, seed := range seeds {
			name := e.name
			if len(seeds) > 1 {
				name = fmt.Sprintf("%s seed %d", e.name, seed)
			}
			start := time.Now()
			res := e.run(experiments.Config{Quick: *quick, Seed: seed})
			fmt.Fprintf(stdout, "==== %s (%.1fs) ====\n%s", name, time.Since(start).Seconds(), res.Render())
			var claims []experiments.Claim
			if c, ok := res.(claimer); ok {
				claims = c.Claims()
			}
			for j, c := range claims {
				fmt.Fprintf(stdout, "claim: %s: %s\n", c.Name, verdict(c))
				if !c.Holds {
					fmt.Fprintf(stderr, "experiments: %s, seed %d: claim %q %s\n", e.name, seed, c.Name, verdict(c))
					status = 1
				}
				if i == 0 {
					rows = append(rows, []string{e.name + ": " + c.Name})
				}
				rows[j] = append(rows[j], cell(c))
			}
			fmt.Fprintln(stdout)
		}
		grid = append(grid, rows...)
	}
	if len(seeds) > 1 && len(grid) > 1 {
		fmt.Fprintf(stdout, "==== claims x seeds (margin; FAILS marks a claim that does not hold) ====\n%s", textplot.Table(grid))
	}
	return status
}

func main() {
	os.Exit(run(os.Args[1:], exhibits, os.Stdout, os.Stderr))
}
