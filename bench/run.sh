#!/usr/bin/env bash
# Builds the simulator benchmark from the checkout it is started in and
# runs it with the given flags. Run it from the repository root:
#
#   bash bench/run.sh --workload rtt --seed 0 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, the go command's telemetry counters
# and profiles stay under .bench_build/ in that root, so nothing outside
# the checkout is written.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=

commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
(cd "$root/bench" && go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$out/bench" .)
exec "$out/bench" "$@"
