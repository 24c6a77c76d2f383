#!/usr/bin/env bash
# Builds keyserverd and the benchmark from the checkout it is
# run in, then runs one benchmark pass. Run it from the repository root:
#
#   bash perfbench/run.sh --workload novel --seed 1 --seconds 10 --trace 0
#
# Everything it writes (Go caches, binaries, run files, traces) goes
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/xdg/go/telemetry"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/xdg"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
# Go telemetry off: otherwise the go command forks a detached sidecar
# (its own session) that can outlive this script.
printf 'off\n' >"$build/xdg/go/telemetry/mode"

go build -o "$build/bin/keyserverd" ./cmd/keyserverd >&2
(cd "$bench" && go build -o "$build/bin/perfbench" .) >&2

PERFBENCH_SOURCE=$(find . -path ./.bench_build -prune -o -type f \( -name '*.go' -o -name go.mod \) -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)
export PERFBENCH_SOURCE
exec "$build/bin/perfbench" --bin "$build/bin" --work "$build/run" "$@"
