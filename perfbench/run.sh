#!/usr/bin/env bash
# Builds the repository benchmark from source and runs it.
#
#   bash perfbench/run.sh --workload mnist-bsgs --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh --compare a.jsonl b.jsonl
#
# Run from the repository root. Everything the build and the runs leave
# behind (Go build cache, binary, run history, span files) goes under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/perfbench"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/perfbench"
export GOWORK=off
export GOTOOLCHAIN=local
# The go command keeps its telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$build/config"

bin="$build/perfbench/perfbench"
(cd "$root/perfbench" && go build -o "$bin" .)
exec "$bin" --out "$build/perfbench" "$@"
