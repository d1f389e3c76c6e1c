#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash benchmark/run.sh --workload figs --seed 1 --seconds 25 --trace 0
#
# Everything the build writes (Go build cache, binary) lands under
# .bench_build/ in the current directory, so a run touches nothing
# outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f benchmark/go.mod ]]; then
	echo "benchmark/run.sh: run from the repository root (go.mod and benchmark/go.mod must both exist)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod
export GOPROXY=off
export GOTOOLCHAIN=local

go -C benchmark build -o "$build/redhip-benchmark" .
exec "$build/redhip-benchmark" "$@"
