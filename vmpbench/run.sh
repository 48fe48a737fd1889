#!/usr/bin/env bash
# run.sh builds vmpd, vmpgen and vmpstudy from the checkout, builds the
# benchmark harness, and runs it with the given arguments:
#
#   bash vmpbench/run.sh --workload serve_history --seed 1 --seconds 10 --trace 0
#
# Run it from the checkout root. Everything it builds, caches and
# writes stays under .bench_build in the checkout, including the Go
# build cache and temporary files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/gocache" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export XDG_CACHE_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=-mod=mod
export GOWORK=off
export GOPROXY=off

# With telemetry on (its default is "local"), the go command forks a
# detached child that outlives it; turning it off keeps every process
# this script starts inside the run.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

cd "$root"
go build -o "$build/bin/" ./cmd/vmpd ./cmd/vmpgen ./cmd/vmpstudy >&2
(cd "$root/vmpbench" && go build -o "$build/bin/vmpbench" .) >&2
exec "$build/bin/vmpbench" -root "$root" "$@"
