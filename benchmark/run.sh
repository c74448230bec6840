#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the
# toolchain writes (build cache, binary) and everything a run writes (boot
# directories, shm files) stays under .bench_build/ at the checkout root;
# trace files go to benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C benchmark -o "$build/upcxx-bench" .
exec "$build/upcxx-bench" "$@"
