#!/usr/bin/env bash
# Builds the bsmp benchmark from the checkout's own sources and runs it.
#
#   bash bsmpbench/run.sh --workload run-mix --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The binary, the Go build cache and the
# span files all stay under $CARGO_TARGET_DIR (default .bench_build), so
# the benchmark reads and writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off GOPROXY=off
(cd "$root/bsmpbench" && go build -o "$out/bsmpbench" .)
exec "$out/bsmpbench" -out "$out" "$@"
