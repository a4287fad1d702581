#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it there with the arguments given. The Go build cache
# and module cache live in .bench_build/ too, so nothing is read or
# written outside the checkout, and nothing is fetched: the benchmark and
# the program under test use the standard library only.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" GOMODCACHE="$root/.bench_build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd bench && go build -buildvcs=false -o "$root/.bench_build/sheriff-bench" .)
exec "$root/.bench_build/sheriff-bench" "$@"
