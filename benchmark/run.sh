#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. The
# binary, the Go build cache, the compiler's temporary files and every
# scratch file stay under .bench_build/ in the checkout root, so a run
# reads and writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOENV=off
go build -C "$root/benchmark" -o "$build/kalis-benchmark" .
exec "$build/kalis-benchmark" "$@"
