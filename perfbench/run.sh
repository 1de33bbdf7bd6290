#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in, then runs it with
# the given flags. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-quick --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and traced-run artifacts stay under
# .bench_build in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out" "$@"
