#!/usr/bin/env bash
# Builds the MDN benchmark from source and runs it with the given flags:
#
#   bash bench/run.sh --workload fleet-batch --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artefact (Go build and
# module caches, the binary, trace files) stays under .bench_build/ in
# the current directory, and the Go toolchain is kept offline and local.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOTMPDIR="$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=

(cd "$root/bench" && go build -o "$out/mdnperf" .)
exec "$out/mdnperf" "$@"
