#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload fleet-churn --seed 1 --seconds 25 --trace 0
#
# Everything the Go command writes (the binary, the build cache, compiler
# temporaries, its configuration and telemetry directory) stays under
# $CARGO_TARGET_DIR (default .bench_build) in the repository, and no module
# is fetched: the benchmark depends only on the repository's own module.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOTMPDIR=$out/tmp GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/benchmark" && go build -o "$out/hars-benchmark" .)
exec "$out/hars-benchmark" "$@"
