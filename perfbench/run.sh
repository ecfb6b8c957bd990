#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it in place of
# this shell, so the benchmark is the only process left once the build has
# finished. Run from the repository root:
#
#	bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
