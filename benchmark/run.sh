#!/usr/bin/env bash
# The benchmark's command (BENCHMARK.json): build ./benchmark from the
# checkout this is run from, then run it with the given arguments. The Go
# build cache, the binary, and every temporary file — the engines' database
# files included — stay under .bench_build/ in the checkout, so nothing is
# read or written outside it apart from the Go toolchain itself.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/home"
unset XDG_CACHE_HOME XDG_CONFIG_HOME GOFLAGS
export HOME="$build/home" GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local
export TMPDIR="$build/tmp"

go build -buildvcs=false -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
