#!/bin/bash
# Builds the benchmark from source inside the checkout and runs it with
# the arguments given. The Go build cache, temp files and the binary all
# live under .bench_build/, so nothing outside the checkout is written.
# In a directory without the repo's go.mod the build fails and so does
# this script.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/lslbench" ./benchmark
exec "$build/lslbench" "$@"
