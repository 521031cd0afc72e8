#!/usr/bin/env bash
# Builds the end-to-end serving benchmark from source and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload storage_uniform --seed 1 --seconds 16 --trace 0
#
# The Go build cache, the binary and every file a run writes (block devices,
# WAL directories, span dumps) stay under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
# XDG_CONFIG_HOME keeps the toolchain's own telemetry counters in the
# checkout as well.
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --workdir "$out/run" "$@"
