#!/usr/bin/env bash
# Builds seatwin-bench from source inside the checkout and runs it with
# the arguments given:
#
#   bash bench/run.sh --workload global_paced --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (the binary, Go's build and module caches,
# temporary files and the go command's own telemetry counters, which live
# in the user's configuration directory) stays under .bench_build/ at the
# root of the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOMODCACHE="$build/modcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
go -C "$here" build -o "$build/seatwin-bench" ./cmd/seatwin-bench
exec "$build/seatwin-bench" -out "$here/out" "$@"
