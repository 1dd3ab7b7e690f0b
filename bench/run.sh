#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given flags. Run from the repository root:
#
#   bash bench/run.sh -workload cold-sweep -seconds 15 -seed 1 -trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary, the benchmark's run stores) stays under .bench_build/ in the
# checkout, and the toolchain never goes to the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
(cd bench && go build -o "$build/nadroid-bench" .)
exec "$build/nadroid-bench" "$@"
