#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Everything the build writes stays under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off
# The go command keeps telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .)
cd "$root"
exec "$build/perfbench/perfbench" "$@"
