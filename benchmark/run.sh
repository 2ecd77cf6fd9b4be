#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ at the root of the checkout and runs
# it with the given arguments. Everything go writes (build cache, temporary
# files, the binary) stays inside the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$out/spilly-benchmark" .
cd "$root"
exec "$out/spilly-benchmark" "$@"
