#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
#
# Every build product, the Go build cache and the span files stay under
# .bench_build in the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gomodcache"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOMODCACHE="$build/gomodcache"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "$build/perfbench" -commit "$commit" "$@"
