#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark and run it with the arguments
# given, from the root of the checkout. Everything the build writes — the
# binary, Go's build cache, its temporary files and its telemetry counters —
# goes under .bench_build/ in the checkout, which .gitignore names.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
(
	cd bench
	GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
		XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
		go build -o "$build/compadres-bench" .
)
exec "$build/compadres-bench" "$@"
