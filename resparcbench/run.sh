#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs one workload:
#
#   bash resparcbench/run.sh --workload sweep-mlp --seed 1 --seconds 20 --trace 0
#
# Everything it writes stays under .bench_build/ at the checkout root: the
# binary, Go's build and module caches, and the result and trace files
# (.bench_build/results/). The Go toolchain must already be installed; the
# build never downloads anything.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly

(cd "$here" && go build -buildvcs=false -o "$out/resparcbench" .) >&2

cd "$root"
exec "$out/resparcbench" --out "$out/results" "$@"
