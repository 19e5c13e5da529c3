#!/usr/bin/env bash
# Builds the blobvfs benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload crowd1k --seed 42 --seconds 40 --trace 0
#
# Every build artifact stays under .bench_build/ in the current
# directory; profiles and span logs of traced runs land in .bench_out/.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in here too.
export GOCACHE=$build/go-cache GOMODCACHE=$build/go-mod GOPATH=$build/go-path \
	GOTMPDIR=$build/tmp XDG_CONFIG_HOME=$build/config \
	GOENV=off GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
