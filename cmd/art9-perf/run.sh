#!/bin/sh
# Builds art9-perf from source and runs it, from the root of a checkout of
# this repository:
#
#   bash cmd/art9-perf/run.sh --workload short-jobs --seed 1 --seconds 10 --trace 0
#
# The binary, Go's build cache, temporary and configuration directories
# all live under .bench_build/ in the current directory, so nothing
# outside the checkout is written. Fails without printing a result when the
# repository's own module is not there to build against.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go build -C cmd/art9-perf -o "$out/art9-perf" .
exec "$out/art9-perf" "$@"
