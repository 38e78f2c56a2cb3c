package main

import (
	"strings"
	"testing"
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
		got, err := selectExhibits(only)
		if err != nil {
			t.Fatalf("-only %q: %v", only, err)
		}
		if len(got) != len(exhibits) {
			t.Errorf("-only %q selected %d of %d exhibits", only, len(got), len(exhibits))
		}
	}
}

func TestSelectExhibitsSubsetInTableOrder(t *testing.T) {
	got, err := selectExhibits("tco, fig12,fig7,fig12")
	if err != nil {
		t.Fatal(err)
	}
	if want := "fig7,fig12,tco"; strings.Join(names(got), ",") != want {
		t.Errorf("selected %v, want %s", names(got), want)
	}
}

func TestSelectExhibitsRejectsTypos(t *testing.T) {
	got, err := selectExhibits("fig7,fgi5,tco,abl-lrux")
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
