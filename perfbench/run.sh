#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload tasks --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and
# every temporary file stay under .bench_build/ there; nothing is
# fetched (the benchmark module needs only the repository and the
# standard library). The first run compiles everything and takes a
# minute or two; later runs reuse the cache.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
