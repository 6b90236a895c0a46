#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it.
# Usage (from the root of the checkout): bash benchmarks/run.sh [hotpath flags]
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep everything the toolchain writes (build cache, work directories,
# module cache, telemetry counters) inside the checkout, and off the network.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmarks" && go build -o "$build/hotpath" ./hotpath)
cd "$root"
exec "$build/hotpath" "$@"
