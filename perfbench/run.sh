#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs one workload.
#
#   bash perfbench/run.sh --workload <read-hot|read-cold|maintain|mixed> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. Everything it builds or writes (Go build
# cache, binary, temporary stores, span files) stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local

# The go command keeps its telemetry counters under the user config
# directory; point that into the build directory too.
XDG_CONFIG_HOME="$out/config" go build -o "$out/perfbench" ./perfbench >&2
exec "$out/perfbench" "$@"
