#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root: bash perfbench/run.sh --workload serve_hit --seed 1 --seconds 10 --trace 0
# Everything the build writes (Go build cache, binary, spans) stays
# under $CARGO_TARGET_DIR, default .bench_build, in the current directory.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/tmp"
export GOCACHE=$build/go-cache GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config GOTMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --spans "$build/spans" "$@"
