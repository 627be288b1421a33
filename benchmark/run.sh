#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given flags.
# Run from the repository root, e.g.
#
#   bash benchmark/run.sh --workload suite --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh -compare before.json after.json
#
# Every file the Go toolchain writes (build cache, temporary build
# directories, telemetry counters, the binary) stays under .bench_build/ in
# the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C benchmark build -o "$out/rotarybench" .
exec "$out/rotarybench" "$@"
