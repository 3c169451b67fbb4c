#!/usr/bin/env bash
# Builds venndaemon and the benchmark from this checkout's sources into
# .bench_build/, then runs one benchmark measurement. Usage:
#
#   bash perfbench/run.sh --workload surplus --seed 1 --seconds 36 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
root=$PWD
out=$root/.bench_build
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOWORK=off
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
go build -o "$out/bin/venndaemon" ./cmd/venndaemon >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -daemon "$out/bin/venndaemon" -out "$out/runs" "$@"
