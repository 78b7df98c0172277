#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run it from the repository root, for example:
#
#   bash perfbench/run.sh --workload parallelise --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# working directory: the Go build cache, the binary, artifact caches and
# traces.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/home"
export GOTOOLCHAIN=local TMPDIR="$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home"
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
