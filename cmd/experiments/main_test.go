package main

import (
	"bytes"
	"math"
	"slices"
	"strings"
	"testing"

	"tmo/internal/experiments"
)

func names(es []exhibit) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.name
	}
	return out
}

func TestSelectExhibitsEmptySelectsAll(t *testing.T) {
	for _, only := range []string{"", "  "} {
		got, err := selectExhibits(exhibits, only)
		if err != nil {
			t.Fatalf("-only %q: %v", only, err)
		}
		if len(got) != len(exhibits) {
			t.Errorf("-only %q selected %d of %d exhibits", only, len(got), len(exhibits))
		}
	}
}

func TestSelectExhibitsSubsetInTableOrder(t *testing.T) {
	got, err := selectExhibits(exhibits, "tco, fig12,fig7,fig12")
	if err != nil {
		t.Fatal(err)
	}
	if want := "fig7,fig12,tco"; strings.Join(names(got), ",") != want {
		t.Errorf("selected %v, want %s", names(got), want)
	}
}

func TestSelectExhibitsRejectsTypos(t *testing.T) {
	got, err := selectExhibits(exhibits, "fig7,fgi5,tco,abl-lrux")
	if err == nil {
		t.Fatalf("typo accepted, selected %v", names(got))
	}
	for _, want := range []string{`"fgi5"`, `"abl-lrux"`, "fig1,fig2", "tco"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
	if strings.Contains(err.Error(), `"fig7"`) {
		t.Errorf("error %q names a valid exhibit as unknown", err)
	}
}

func TestExhibitNamesUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range exhibits {
		if seen[e.name] {
			t.Errorf("exhibit %q listed twice", e.name)
		}
		seen[e.name] = true
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := parseSeeds("42,123,456")
	if err != nil || !slices.Equal(got, []uint64{42, 123, 456}) {
		t.Fatalf("parseSeeds(42,123,456) = %v, %v", got, err)
	}
	for _, bad := range []string{"42,,7", "x", "-1", ""} {
		if _, err := parseSeeds(bad); err == nil || strings.Contains(err.Error(), "\n") {
			t.Errorf("-seed %q: error %v, want a one-line rejection", bad, err)
		}
	}
}

// claimed is a stand-in result stating fixed claims.
type claimed []experiments.Claim

func (c claimed) Render() string              { return "report\n" }
func (c claimed) Claims() []experiments.Claim { return c }

// runTable runs the command over a one-exhibit table and returns its exit
// status, stdout and stderr.
func runTable(res experiments.Result, args ...string) (int, string, string) {
	table := []exhibit{{"stub", func(experiments.Config) experiments.Result { return res }}}
	var out, errs bytes.Buffer
	status := run(args, table, &out, &errs)
	return status, out.String(), errs.String()
}

func TestRunFailingClaimExits1(t *testing.T) {
	res := claimed{{Name: "fast beats slow", Holds: false, Margin: -0.5}}
	status, out, errs := runTable(res, "-seed", "7,8")
	if status != 1 {
		t.Fatalf("exit %d, want 1", status)
	}
	for _, want := range []string{"stub", `"fast beats slow"`, "seed 7", "seed 8", "FAILS -0.5"} {
		if !strings.Contains(errs, want) {
			t.Errorf("stderr %q does not name %s", errs, want)
		}
	}
	if !strings.Contains(out, "claims x seeds") {
		t.Errorf("two seeds but no claim x seed table:\n%s", out)
	}
}

func TestRunYesNoClaimPrintsNoMargin(t *testing.T) {
	res := claimed{{Name: "safe rollout completed", Holds: true, Margin: math.NaN()}}
	status, out, errs := runTable(res)
	if status != 0 || errs != "" {
		t.Fatalf("exit %d, stderr %q; want 0 and nothing", status, errs)
	}
	if want := "report\nclaim: safe rollout completed: holds\n\n"; !strings.HasSuffix(out, want) {
		t.Errorf("output %q does not end in %q", out, want)
	}
}

func TestRunRejectsBadSeed(t *testing.T) {
	status, out, errs := runTable(claimed{}, "-seed", "42,,7")
	if status != 2 || out != "" || strings.Count(errs, "\n") != 1 {
		t.Errorf("exit %d, stdout %q, stderr %q; want 2, nothing, one line", status, out, errs)
	}
}
