#!/usr/bin/env bash
# Builds the benchmark harness and crowdmapd from the checkout it is run
# in, then runs one benchmark workload. Run from the repository root:
#
#   bash cmbench/run.sh --workload cold_rebuild --seed 1 --seconds 20 --trace 0
#
# Every build product, Go cache and fixture lives under .bench_build/.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/crowdmapd" || ! -f "$root/cmbench/go.mod" ]]; then
	echo "cmbench: run from the root of a crowdmap checkout" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=mod
export GOTELEMETRY=off

(cd "$root/cmbench" && go build -o "$out/cmbench" .)
go build -o "$out/crowdmapd" ./cmd/crowdmapd
exec "$out/cmbench" -root "$root" -daemon "$out/crowdmapd" "$@"
