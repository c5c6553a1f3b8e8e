#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the harness from source,
# keeping the Go build cache and every binary under .bench_build/ in
# the checkout, then hands all arguments to it. In a directory that
# holds only the benchmark (no simulator source next to bench/) the
# build fails and so does this script, before any result is printed.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
cd "$root/bench"
go build -o "$build/bin/eolebench" .
exec "$build/bin/eolebench" "$@"
