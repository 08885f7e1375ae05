#!/usr/bin/env bash
# Builds the benchmark and the djworker binary from this checkout's
# sources, then runs it with the given arguments. Run from the
# repository root:
#
#   bash benchmark/run.sh --workload web-refine --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# current directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f benchmark/go.mod ]]; then
	echo "benchmark/run.sh: run from the repository root (go.mod, internal/ and benchmark/ not found)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config" "$build/gopath"
# Keep the toolchain's caches, temp files, config and telemetry inside
# the build directory, and never let it reach the network.
gobuild() {
	GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
		GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off go build "$@"
}

(cd benchmark && gobuild -o "$build/benchmark" .)
gobuild -o "$build/djworker" ./cmd/djworker
TMPDIR="$build/tmp" exec "$build/benchmark" --worker-bin "$build/djworker" --build-dir "$build" "$@"
