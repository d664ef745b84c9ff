#!/bin/sh
# Builds hservd and the benchmark driver from the checkout this script sits
# in, then runs the driver with the arguments given. Run it from the root of
# the checkout:
#
#	sh perfbench/run.sh --workload hit --seed 1 --seconds 10 --trace 0
#
# Every file the toolchain or the benchmark writes lands in .bench_build.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -o "$out/hservd" ./cmd/hservd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -hservd "$out/hservd" -out "$out" "$@"
