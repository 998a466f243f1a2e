#!/usr/bin/env bash
# Builds the benchmark and the spantreed daemon from this checkout into
# .bench_build/ at the repository root, then runs the benchmark with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload lib-random --seed 1 --seconds 30 --trace 0
#   bash bench/run.sh --seed 1     # every workload, untraced then traced
#
# The Go build cache and the build's temporary files also live under
# .bench_build/, so nothing is written outside the checkout.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/go-build" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false GOWORK=off
# The go command keeps telemetry under the user config directory.
export XDG_CONFIG_HOME="$out/config"

go -C "$root/bench" build -o "$out/bench" .
go -C "$root/bench" build -o "$out/spantreed" spantree/cmd/spantreed

cd "$root"
exec .bench_build/bench -daemon .bench_build/spantreed -workdir .bench_build -root . "$@"
