#!/usr/bin/env bash
# Builds the perfbench harness from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload track --seed 1 --seconds 20 --trace 0
#
# The binary, the Go build cache and the go command's own state stay in
# .bench_build at the root, so a run reads and writes nothing else in the
# user's home. The build fails, and the script exits non-zero without a
# result line, when the repository's module is not beside this directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOMODCACHE="$out/go-path/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOTOOLCHAIN=local

go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
