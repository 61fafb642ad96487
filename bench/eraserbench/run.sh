#!/usr/bin/env bash
# Builds the ERASER benchmark from this checkout's sources and runs it.
#
#   bash bench/eraserbench/run.sh [-workload NAME|all] [-seed N] [-seconds S]
#                                 [-trace 0|1] [-spans DIR] [-out FILE] [-prior FILE]
#
# The Go build cache, temp files and the binary all live under
# <checkout>/.bench_build, so a run writes nothing outside the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/eraserbench" .)
exec "$build/eraserbench" -benchmark "$root/BENCHMARK.json" "$@"
