#!/usr/bin/env bash
# Builds the perfbench program from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload lr-c --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare old.jsonl new.jsonl
#   bash perfbench/run.sh validate results.jsonl
#
# Everything the build writes (Go build cache, temporary files, the
# benchmark and daemon binaries) stays under .bench_build in the current
# directory, and the toolchain is kept offline.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" HOME="$build/home"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
