#!/usr/bin/env bash
# Builds cmd/tmobench from the checkout it is run in and runs it with the
# given arguments, e.g.
#
#   bash cmd/tmobench/run.sh --workload host-chain --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write stays under .bench_build/ there: the Go build cache, the binary and
# the trace output. Building needs the rest of the repository (the command
# is a module of its own that imports the root module's packages), so in a
# directory holding only the benchmark it fails and prints no result.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off \
	XDG_CONFIG_HOME="$out/config"
(cd cmd/tmobench && go build -o "$out/tmobench" .)
exec "$out/tmobench" "$@"
