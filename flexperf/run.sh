#!/usr/bin/env bash
# Builds flexserve and the flexperf load generator from the checkout this
# script sits in, then runs one benchmark workload. Run it from the root
# of the checkout:
#
#   bash flexperf/run.sh --workload static-reuse --seed 1 --seconds 12 --trace 0
#
# Every build product and the Go build cache stay under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/flexserve" ./cmd/flexserve >&2
(cd "$root/flexperf" && go build -o "$out/flexperf" .) >&2
exec "$out/flexperf" -server "$out/flexserve" -outdir "$out" "$@"
