# Tier-1 verification gate (see ROADMAP.md): everything must build, vet
# clean, and pass tests; the concurrency-sensitive packages additionally
# run under the race detector.

GO ?= go

.PHONY: all check race tmobench bench bench-check loc

all: check

check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) race
	$(MAKE) tmobench

race:
	$(GO) test -race ./internal/telemetry ./internal/trace ./internal/metrics ./internal/fleet ./internal/rollout ./internal/tsdb ./internal/slo ./internal/twin ./internal/place ./internal/backend

# The benchmark command is a module of its own that imports core, fleet,
# rollout and cliutil, so the root ./... patterns never reach it; vet and
# test it explicitly so an API change cannot break it silently (~20 s).
tmobench:
	cd cmd/tmobench && $(GO) vet ./... && $(GO) test ./...

# Reproducible perf baseline: runs the root figure benchmarks that build hosts
# once each, the host-less ones (Figs. 1, 5, 7, table51) 100 times, and the
# hot-path microbenchmarks at fixed iteration counts, and writes the
# parsed results to BENCH_core.json. Override the budgets with
# BENCH_FLAGS="-figures 3x -micro 100000x" or shrink for CI with
# BENCH_FLAGS=-skip-figures.
bench:
	$(GO) run ./cmd/benchjson -out BENCH_core.json $(BENCH_FLAGS)

# Perf regression gate: rerun the benchmark suites into a scratch file and
# diff against the committed baseline — every benchmark fails on any
# allocs/op growth. Wall-clock times move with the machine and are not
# gated here.
bench-check:
	$(GO) run ./cmd/benchjson -out /tmp/BENCH_fresh.json -compare BENCH_core.json $(BENCH_FLAGS)

# Code size: non-test Go lines per internal/ package, comment-only and blank
# lines excluded, then their total.
loc:
	@total=0; for d in internal/*/; do \
		n=$$(cat $$(ls $$d*.go | grep -v '_test\.go$$') | grep -cv '^\s*//\|^\s*$$'); \
		printf '%-24s %6d\n' "$$d" "$$n"; total=$$((total + n)); \
	done; printf '%-24s %6d\n' total "$$total"
