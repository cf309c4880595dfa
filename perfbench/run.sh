#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it. Run from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload replay-mpeg --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout. Outside a full checkout (no ../go.mod and
# no internal/ packages) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --workdir "$out" "$@"
