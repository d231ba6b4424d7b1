#!/bin/bash
# What BENCHMARK.json runs, from the root of a checkout: builds the benchmark
# from the checkout's source and runs it with the arguments given. Everything
# the Go toolchain writes (build cache, temporary files, the binary) goes under
# .bench_build in the checkout, so a run touches nothing outside it.
# `go run ./benchmark` does the same with the toolchain's usual directories.
set -eu
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
go build -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
