#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it. Everything the build and the run write — the Go
# build cache, link temporaries, the durable workload's data directory,
# the span files — stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/dpbenchmark" .)
exec "$build/dpbenchmark" -out "$here/out" -tmp "$build/tmp" "$@"
