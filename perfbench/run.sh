#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it with the
# given arguments. Run from the checkout root:
#
#	bash perfbench/run.sh --workload fin1-serial --seed 1 --seconds 10 --trace 0
#	bash perfbench/run.sh --workload all --seconds 10
#
# Every build product, cached trace and span file stays under
# .bench_build/perfbench in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" --cache "$out" "$@"
