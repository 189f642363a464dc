#!/usr/bin/env bash
# Builds clrbench from the checkout's sources and runs it from the checkout
# root, passing every argument through:
#
#   bash cmd/clrbench/run.sh --workload paper-mix --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, temporary files, the binary, the
# fleet's stores and the span files. The toolchain is used offline, as is.
set -euo pipefail

root=$(pwd)
src=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd "$src" && go build -o "$build/clrbench" .)
exec "$build/clrbench" "$@"
