#!/usr/bin/env bash
# Builds ivmbench from this checkout and runs it with the given flags,
# for example:
#
#   bash bench/run.sh --workload serve-single --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, the binary, the
# workloads' stores and the trace files all stay under .bench_build/.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off
go -C bench build -o "$build/ivmbench" ./cmd/ivmbench
exec "$build/ivmbench" -workdir "$build/ivmbench-work" "$@"
