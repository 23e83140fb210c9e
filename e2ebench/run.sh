#!/usr/bin/env bash
# Builds the benchmark from the source tree in the current directory
# and runs it with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload bigclass --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run
# write stays under .bench_build in that directory: the Go build cache,
# temporary files, the binary and each run's work directory.
set -euo pipefail

if [[ ! -f go.mod ]] || ! grep -q '^module graphkeys$' go.mod; then
	echo "e2ebench: run from the root of the graphkeys source tree (no go.mod for module graphkeys here)" >&2
	exit 1
fi

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# XDG_CONFIG_HOME keeps the go command's own files (its env file and
# telemetry counters) in the tree as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local CGO_ENABLED=0

go build -o "$out/e2ebench" ./e2ebench
exec "$out/e2ebench" "$@"
