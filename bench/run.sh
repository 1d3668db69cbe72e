#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository
# root and runs it with the given arguments, for example:
#
#   bash bench/run.sh --workload netsplit --seed 42 --seconds 24 --trace 0
#
# The Go build cache lives in .bench_build/ too, so a run reads and
# writes nothing outside the checkout but the toolchain itself. The
# build fails, and the script exits non-zero, when the simulator's
# sources are not beside bench/.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
# The go command keeps its telemetry under the user config directory.
export XDG_CONFIG_HOME="$build/config"

go -C "$root/bench" build -o "$build/lupine-benchmark" .
exec "$build/lupine-benchmark" "$@"
