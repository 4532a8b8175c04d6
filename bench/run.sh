#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository root.
# Everything the build and the run write stays inside the checkout:
# .bench_build/ (binary, Go build cache, temp dirs) and bench/out/ (results).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/streamrel-bench" .)
cd "$root"
exec "$build/streamrel-bench" "$@"
