#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments. Everything the build leaves behind (the binary and the Go
# build cache) goes under .bench_build/ at the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local GOPROXY=off
go build -o .bench_build/bench ./bench
exec .bench_build/bench "$@"
