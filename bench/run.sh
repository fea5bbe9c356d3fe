#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything it writes stays
# inside the checkout: the Go build cache, module cache and binary under
# .bench_build/, results under bench/out/.
#
#   bash bench/run.sh -workload W [-seed S] [-seconds N] [-trace 0|1]
#   bash bench/run.sh -all [-seed S]
#   bash bench/run.sh -compare bench/baseline/set1 bench/out
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOFLAGS=-mod=mod
export GOTOOLCHAIN=local GOPROXY=off GONOSUMDB='*' XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" "$@"
