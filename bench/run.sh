#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the benchmark from source into
# .bench_build/ at the root of the checkout — Go's build cache, module path
# and temp files are pointed there too, so nothing is written outside the
# checkout — then runs it from wherever it was called, with data files and
# trace output under bench/out/. Arguments pass through to the benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/dbplbench" .)
exec "$build/dbplbench" -out "$here/out" "$@"
