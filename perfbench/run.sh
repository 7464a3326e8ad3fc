#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload direct-rtm --seed 1 --seconds 12 --trace 0
#
# The binary, the Go build cache and every temporary file stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The build
# needs the repository's Go module one directory up; without it the build,
# and so the run, fails.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$(pwd)/$out ;;
esac
mkdir -p "$out/tmp"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomod GOPATH=$out/gopath
export TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false

go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
