#!/usr/bin/env bash
# Builds the ledger benchmark from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash ledger/run.sh --workload wide-local --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry) stays under .bench_build/ in the current directory.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOTMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" \
	GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off

(cd ledger && go build -o "$build/ledger" .) >&2
exec "$build/ledger" "$@"
