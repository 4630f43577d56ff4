#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
#
#   bash bench/run.sh --workload fig2_local --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory (the root of the checkout): the Go build cache, the
# toolchain's temporary files, the binary, and the fleet workload's
# throw-away stores. Arguments are passed to the binary unchanged; see
# `go run ./bench -help`.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d bench ]; then
	echo "bench/run.sh: run from the root of a checkout of the module (no go.mod or bench/ here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
# No network and no other toolchain: the module has no dependencies.
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
