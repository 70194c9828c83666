#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload linux-eb-executed --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --workload all
#
# Every build artifact (Go build cache, temporary files, the binary) and every
# runtime file (sockets, span dumps) stays under .bench_build/ in the current
# directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOMODCACHE="$out/gomod"
export GOFLAGS=""
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOSUMDB=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
