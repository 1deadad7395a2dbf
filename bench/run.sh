#!/usr/bin/env bash
# Builds the benchmark and the elfd worker from this checkout, then runs
# the benchmark with the given arguments (see bench/README.md). Run it
# from the repository root. The build cache, binaries and everything the
# runs write stay under .bench_build/.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f bench/go.mod ]; then
	echo "bench/run.sh: run from the repository root (go.mod, internal/ and bench/ not found)" >&2
	exit 2
fi
b="$(pwd)/.bench_build"
mkdir -p "$b/bin" "$b/tmp"
export GOCACHE="$b/gocache" GOPATH="$b/gopath" GOTMPDIR="$b/tmp" TMPDIR="$b/tmp" \
	XDG_CONFIG_HOME="$b/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd bench && go build -o "$b/bin/bench" . && go build -o "$b/bin/elfd" elfetch/cmd/elfd)
exec "$b/bin/bench" -elfd "$b/bin/elfd" "$@"
