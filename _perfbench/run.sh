#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs one
# workload. Run it from the repository root:
#
#   bash _perfbench/run.sh --workload paper-mix --seed 1 --seconds 40 --trace 0
#
# Everything it writes (Go build cache, binary, scratch files, span files,
# results) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/_perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
