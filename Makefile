# Tier-1 verification gate (see ROADMAP.md): everything must build, vet
# clean, and pass tests; the concurrency-sensitive packages additionally
# run under the race detector.

GO ?= go

.PHONY: all check race tmobench bench bench-check loc live

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

# Test hooks: functions no binary calls that a test in another package
# needs, each with the test that reads it. `make live` accepts only these.
LIVE_HOOKS += mm.(*Manager).Far                                    # place: TestStaleCopyAbortsAfterChurn, BenchmarkPlaceTick
LIVE_HOOKS += mm.(*Group).FarPages                                 # place: TestStaticInterleaveDisablesMigration
LIVE_HOOKS += backend.(*SSDDevice).Reads                           # mm: TestReadaheadChargesOneDeviceOp
LIVE_HOOKS += backend.(*SSDDevice).ReadRate                        # mm: TestReadaheadChargesOneDeviceOp
LIVE_HOOKS += backend.(*TierChain).DemoteBackpressure              # core: TestTieredChainChaosDeterminism
LIVE_HOOKS += senpai.(*Controller).WorkingSet                      # core: TestWorkingSetProfileEndToEnd
LIVE_HOOKS += senpai.WorkingSetProfile.OverprovisionFrac           # core: TestSelfExtractingBinaryAnecdote
LIVE_HOOKS += sim.(*Server).LastResult                             # core: TestSoakLongRun
LIVE_HOOKS += workload.(*App).Revive                               # core: TestSoakLongRun; oomd: TestEndToEndWithSimulator
LIVE_HOOKS += cgroup.(*Hierarchy).Manager                          # oomd: TestSustainedFullPressureKills
LIVE_HOOKS += workload.(*App).Admitted                             # sim: TestSelfThrottleEngagesWhenMemoryTight

# Reachability: every non-test func under internal/ must be linked into at
# least one binary (the five CLIs, benchjson and cmd/tmobench, built with
# inlining off so no call folds away), or be listed in
# LIVE_HOOKS above. Generic instantiations count for their declaration.
# Prints each unexplained function and fails if there is one.
live:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -gcflags=all=-l -o "$$tmp/" ./cmd/... && \
	(cd cmd/tmobench && $(GO) build -gcflags=all=-l -o "$$tmp/tmobench" .) && \
	for b in "$$tmp"/*; do $(GO) tool nm "$$b"; done | \
		sed -n 's|^ *[0-9a-f]* [Tt] tmo/internal/||p' | \
		sed -e ':a' -e 's/\[[^][]*\]//g' -e 'ta' | sort -u > "$$tmp/linked" && \
	for f in $$(ls internal/*/*.go | grep -v '_test\.go$$'); do \
		pkg=$$(basename $$(dirname $$f)); \
		sed -nE -e 's/^func \(([A-Za-z_0-9]+ )?\*([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*/(*\2).\4/p;t' \
			-e 's/^func \(([A-Za-z_0-9]+ )?([A-Za-z_0-9]+)(\[[^]]*\])?\) ([A-Za-z_0-9]+).*/\2.\4/p;t' \
			-e 's/^func ([A-Za-z_0-9]+).*/\1/p' $$f | \
			grep -vx 'init\|_' | sed "s/^/$$pkg./"; \
	done | sort -u > "$$tmp/declared" && \
	printf '%s\n' $(foreach h,$(LIVE_HOOKS),'$(h)') | sort -u > "$$tmp/hooks" && \
	comm -23 "$$tmp/declared" "$$tmp/linked" | comm -23 - "$$tmp/hooks" > "$$tmp/dead" && \
	if [ -s "$$tmp/dead" ]; then \
		echo "make live: $$(wc -l < "$$tmp/dead") funcs under internal/ that no binary links:"; \
		cat "$$tmp/dead"; exit 1; \
	fi
