#!/usr/bin/env bash
# Builds the whole-run benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload profile --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache, the go command's own files and the traced
# runs' span files stay under .bench_build/ in the working directory. In a
# directory without the repository's sources the build fails and the
# script exits non-zero.
set -euo pipefail
root=$PWD
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
cd "$(dirname "$0")"
go build -o "$out/perfbench.$$" . >&2
mv -f "$out/perfbench.$$" "$out/perfbench"
cd "$root"
exec "$out/perfbench" "$@"
