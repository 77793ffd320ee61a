#!/usr/bin/env bash
# Builds vanid and the benchmark from the checkout this script sits in and
# runs the benchmark. Every build product, cache and scratch file lands
# under <checkout>/.bench_build.
#
#	bash vanibench/run.sh --workload file-report --seed 1 --seconds 10 --trace 0
#	bash vanibench/run.sh steady --workloads all --runs 5
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(cd "$here/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/modcache" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOENV=off
# Go telemetry is set per config dir, and with it on every go command may
# start a detached upload process that outlives the build. Switch it off
# in the fresh config dir before the first build.
go telemetry off
(cd "$root" && go build -o "$out/vanid" ./cmd/vanid)
(cd "$here" && go build -o "$out/vanibench" .)
exec "$out/vanibench" -root "$root" -vanid "$out/vanid" "$@"
