#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload node-mix --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything the build and the run
# write stays under .bench_build/ in that checkout: the Go build cache,
# the binary, and the traced run's spans and CPU profile.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false
export GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
