#!/usr/bin/env bash
# Builds the benchmark and the binaries it drives (edcached, experiments,
# tracegen) from the checkout's sources, then runs one benchmark workload.
# Run it from the root of the repository:
#
#   bash edbench/run.sh --workload paper-all --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind goes to .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/bin/" ./cmd/edcached ./cmd/experiments ./cmd/tracegen
(cd edbench && go build -o "$out/bin/edbench" .)
exec "$out/bin/edbench" -root "$root" "$@"
