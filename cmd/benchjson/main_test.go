package main

import "testing"

func report(bs ...Benchmark) Report { return Report{Benchmarks: bs} }

// TestCompareReportsGatesAllocsOnly pins the regression gate: allocs/op may
// grow by less than half an allocation plus 1%, ns/op is never gated, and a
// benchmark missing from the baseline is skipped.
func TestCompareReportsGatesAllocsOnly(t *testing.T) {
	base := report(
		Benchmark{Package: "tmo", Name: "Figure7PSISemantics", Iterations: 100, NsPerOp: 5e3, AllocsPerOp: 0},
		Benchmark{Package: "tmo", Name: "Figure9AppSavings", Iterations: 1, NsPerOp: 1e9, AllocsPerOp: 40000},
	)
	for _, tc := range []struct {
		name  string
		fresh Benchmark
		fail  bool
	}{
		{"slower but same allocs", Benchmark{Package: "tmo", Name: "Figure9AppSavings", NsPerOp: 5e9, AllocsPerOp: 40000}, false},
		{"within 1% epsilon", Benchmark{Package: "tmo", Name: "Figure9AppSavings", AllocsPerOp: 40400}, false},
		{"past 1% epsilon", Benchmark{Package: "tmo", Name: "Figure9AppSavings", AllocsPerOp: 40401}, true},
		{"fractional drift", Benchmark{Package: "tmo", Name: "Figure7PSISemantics", AllocsPerOp: 0.4}, false},
		{"one new allocation", Benchmark{Package: "tmo", Name: "Figure7PSISemantics", AllocsPerOp: 1}, true},
		{"not in baseline", Benchmark{Package: "tmo", Name: "NewFigure", AllocsPerOp: 1e6}, false},
	} {
		got := compareReports(base, report(tc.fresh))
		if (len(got) > 0) != tc.fail {
			t.Errorf("%s: regressions %q, want failure %v", tc.name, got, tc.fail)
		}
	}
}
