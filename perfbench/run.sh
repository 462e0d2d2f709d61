#!/usr/bin/env bash
# Builds the benchmark (and, through the replace directive in go.mod, the
# platform it drives) from the sources of this checkout, then runs it with
# the given arguments:
#
#   bash perfbench/run.sh --workload crowd-assign --seed 1 --seconds 20 --trace 0
#
# Everything it writes — the Go build cache, the binary, WAL and scratch
# directories, span files — stays under .bench_build/ at the checkout root.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
bin="$out/perfbench.$$"
(cd "$root/perfbench" && go build -o "$bin" .)
mv -f "$bin" "$out/perfbench"
exec "$out/perfbench" -out "$out" "$@"
