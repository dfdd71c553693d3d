#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs it.
# Run from the repository root:
#   bash perfbench/run.sh --workload suite-fresh --seed 1 --seconds 25 --trace 0
# Every build and run artefact (Go build cache, binary, results, traces)
# stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOPATH="$out/go" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod \
	GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
