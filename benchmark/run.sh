#!/usr/bin/env bash
# Builds the benchmark program (mpicollperf) from source and runs it from the
# repository root, passing every argument through:
#
#   bash benchmark/run.sh --workload generate --seed 1 --seconds 15 --trace 0
#
# All build state (Go build cache, module cache, tool configuration) stays in
# .bench_build/ at the repository root, so a run reads and writes nothing
# outside the checkout. The build fails, and the script exits non-zero
# without printing a result, when the repository sources are missing.
set -euo pipefail

cd "$(dirname "$0")/.."
root=$PWD
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-buildvcs=false

(cd benchmark && go build -o "$build/mpicollperf" .)
exec "$build/mpicollperf" "$@"
