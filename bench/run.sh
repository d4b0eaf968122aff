#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory
# (the repository root) and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload phi-tako --seed 1 --seconds 30 --trace 0
#
# Go's build cache and temporary files go under .bench_build/ as well,
# so building and running write nothing outside the checkout.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/work"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

(cd bench && go build -o "$out/takobench" .)
exec "$out/takobench" -workdir "$out/work" "$@"
