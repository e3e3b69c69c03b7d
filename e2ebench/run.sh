#!/usr/bin/env bash
# Builds flowd and the benchmark from this checkout's sources, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash e2ebench/run.sh --workload bulk --seed 1 --seconds 20 --trace 0
#   bash e2ebench/run.sh sweep --runs 10 --out results/a
#   bash e2ebench/run.sh compare results/a results/b
#
# Everything it builds or writes stays under .bench_build/ in the
# repository root, including the Go build cache.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off
(cd "$root/e2ebench" && go build -o "$out/e2ebench" . && go build -o "$out/flowd" repro/cmd/flowd) >&2
case "${1:-}" in
compare) exec "$out/e2ebench" "$@" ;;
sweep) shift; exec "$out/e2ebench" sweep -bench "$out/e2ebench" -flowd "$out/flowd" -scratch "$out/tmp" "$@" ;;
*) exec "$out/e2ebench" -flowd "$out/flowd" -scratch "$out/tmp" "$@" ;;
esac
