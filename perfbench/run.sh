#!/usr/bin/env bash
# Builds the benchmark program from this checkout's sources and runs it
# from the checkout root with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sim-mixed --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/go-cache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
