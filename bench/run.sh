#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# driver's arguments. Everything Go writes (build cache, temporary files,
# binaries) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOENV=off
(cd "$root/bench" && go build -o "$build/bin/bench" .)
exec "$build/bin/bench" -root "$root" "$@"
