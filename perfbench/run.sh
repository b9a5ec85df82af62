#!/usr/bin/env bash
# Builds perfbench from the source in this checkout and runs it with
# the arguments given. Run from the repository root:
#
#   bash perfbench/run.sh --workload rpc --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay under
# .bench_build in the checkout; the toolchain is never downloaded.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
