#!/usr/bin/env bash
# Builds fpgaperf from the source of the checkout it is run in and runs
# it with the arguments given. Run it from the repository root:
#
#   bash cmd/fpgaperf/run.sh --workload paper-sweeps --seed 1 --seconds 15 --trace 0
#
# The binary and the Go build cache stay under .bench_build/ in the
# checkout; nothing is fetched over the network.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C cmd/fpgaperf build -o "$out/fpgaperf" .
exec "$out/fpgaperf" "$@"
