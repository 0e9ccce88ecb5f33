#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments, from the repository root:
#
#   bash benchmark/run.sh --workload small-jobs --seed 1 --seconds 10 --trace 0
#
# Build cache, the toolchain's own config and telemetry files, the binary,
# data directories and run records all stay under .bench_build/. Building
# needs the repository's sources next to this directory; without them the
# build fails and no result is printed.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" GOPROXY=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd benchmark && XDG_CONFIG_HOME="$out/config" go build -o "$out/mcoptbench" .)
exec "$out/mcoptbench" "$@"
