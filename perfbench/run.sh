#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload ingest|serve|train --seed N --seconds S --trace 0|1
#
# Run it from the repository root. The Go build cache, the benchmark
# binary, the cached reference model and the per-run scratch files all
# live under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0

go -C "$root/perfbench" build -o "$build/perfbench" .
exec "$build/perfbench" -workdir "$build/perfbench.d" "$@"
