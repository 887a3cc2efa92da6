#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it. Run from the
# repository root: bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything it builds and writes stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
# Keep the toolchain's caches, temporaries and telemetry counters inside
# .bench_build too, and never reach for the network.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --out "$out" "$@"
