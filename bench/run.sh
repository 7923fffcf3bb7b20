#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source
# into .bench_build/ at the checkout root (Go build cache included, so
# nothing is written outside the checkout) and runs it with the caller's
# arguments. Exits non-zero without printing a result when the repository
# the benchmark measures is not there to build against.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build=$root/.bench_build
mkdir -p "$build"
export GOCACHE=$build/gocache GOTOOLCHAIN=local XDG_CONFIG_HOME=$build/config
(cd bench && go build -o "$build/boltbench" .) >&2
exec "$build/boltbench" "$@"
