#!/usr/bin/env bash
# Builds craftykv and the benchmark from source, then runs one benchmark
# invocation. Run it from the repository root:
#
#   bash perfbench/run.sh --workload kv-read --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binaries, Go build cache, temporary files)
# stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	GOPROXY=off GOENV=off

go build -o "$out/craftykv" ./cmd/craftykv
go -C perfbench build -o "$out/perfbench" .

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
exec "$out/perfbench" -server "$out/craftykv" -commit "$commit" "$@"
