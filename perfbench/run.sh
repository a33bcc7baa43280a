#!/usr/bin/env bash
# Builds the afserve binary and the benchmark driver from this checkout's
# sources, then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload hot-http --seed 1 --seconds 15 --trace 0
#
# Every build and run artifact (Go build cache, binaries, spill
# directories, run records) stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/afserve" ]; then
	echo "perfbench: no go.mod or cmd/afserve in $root; nothing to benchmark" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
# The go command's telemetry would otherwise start a detached sidecar
# process that outlives this script; "off" in the mode file stops that.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"

go build -o "$out/afserve" ./cmd/afserve
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" "$@"
