#!/usr/bin/env bash
# Builds histserved and the benchmark from this checkout and runs one
# benchmark run. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload ingest_durable --seed 1 --seconds 25 --trace 0
#   bash perfbench/run.sh --summarize     # every stored result, median and quartiles
#
# Everything it builds or writes stays under .bench_build in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
  GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -o "$build/histserved" ./cmd/histserved >&2
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" -histserved "$build/histserved" -work "$build" "$@"
