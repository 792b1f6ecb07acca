#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, for example:
#
#   bash perfbench/run.sh --workload paced --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, temporary files, the
# binary) stays under .bench_build at the root of the checkout.
set -euo pipefail

bench_dir="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench_dir")"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/home/go"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOTELEMETRY=off

(cd "$bench_dir" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
