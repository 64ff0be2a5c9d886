#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it;
# every argument goes to the benchmark. The Go build cache, the Go
# configuration and telemetry directories, the binary and the run
# outputs all stay under .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload serve-exact --seed 1 --seconds 50 --trace 0
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" --out "$build/out" "$@"
