#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json's command.
#
# Run from the root of a checkout. Everything the build writes stays inside
# the checkout, under .bench_build. The binary is exec'd directly, not run
# through `go run`, whose child process outlives a killed parent.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOENV=off
go build -o "$build/fmbench" ./benchmark
exec "$build/fmbench" "$@"
