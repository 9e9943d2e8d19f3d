#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given flags (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files, the
# binary) and everything the benchmark writes stays under the build
# directory: $CARGO_TARGET_DIR when set, else .bench_build.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac
mkdir -p "$build/gocache" "$build/gomodcache" "$build/tmp"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOPATH=$build/gopath \
	GOTMPDIR=$build/tmp TMPDIR=$build/tmp GOENV=off GOWORK=off GOFLAGS=-buildvcs=false \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build" "$@"
