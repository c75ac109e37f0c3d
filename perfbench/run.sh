#!/usr/bin/env bash
# Builds perfbench from source and runs one measurement.
#
#   bash perfbench/run.sh --workload serve-batched --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, spans) goes under $CARGO_TARGET_DIR, or
# .bench_build when it is unset, inside the working directory. The last
# line of standard output is the result JSON; a failed build exits
# non-zero without one.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/perfbench/home" "$build/perfbench/tmp"

export HOME=$build/perfbench/home
export XDG_CONFIG_HOME=$HOME/.config XDG_CACHE_HOME=$HOME/.cache
export GOCACHE=$build/perfbench/gocache GOPATH=$build/perfbench/gopath
export GOMODCACHE=$build/perfbench/gopath/pkg/mod TMPDIR=$build/perfbench/tmp
export GOENV=off GOFLAGS=-buildvcs=false GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench/perfbench" .) >&2
exec "$build/perfbench/perfbench" --spans-dir "$build/perfbench/spans" "$@"
