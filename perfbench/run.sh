#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments. Run it
# from the root of the repository; the build cache, the binary and every
# file a run writes stay under .bench_build there.
#
#   bash perfbench/run.sh --workload lazy_dashboard --seed 1 --seconds 30 --trace 0
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" "$@"
