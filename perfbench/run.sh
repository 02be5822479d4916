#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out"
# XDG_CONFIG_HOME keeps the go command's own telemetry counters in here too.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOENV=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
