#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build outputs, the Go build cache, WALs and
# traces all stay under .bench_build in the current directory.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C perfbench -o "$build/perfbench" .
exec "$build/perfbench" "$@"
