#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload kernel_batch --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything the build and the run
# leave behind (Go build cache, binary, traces, temporary run stores)
# goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/config" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go -C "$root/perfbench" build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
