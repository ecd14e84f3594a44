#!/usr/bin/env bash
# Builds partitiond, experiments, hotlprof and the benchmark from this
# checkout, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-plan --seed 1 --seconds 12 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the
# checkout, including the Go build cache.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/partitiond" ] || [ ! -d "$root/results" ]; then
	echo "perfbench: run from the repository root (need go.mod, cmd/partitiond and results/)" >&2
	exit 2
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"
# Offline, self-contained builds: no toolchain or module downloads, and
# the caches Go would keep in the home directory live in $out instead.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/bin/" ./cmd/partitiond ./cmd/experiments ./cmd/hotlprof >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" "$@"
