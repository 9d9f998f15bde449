#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload mem-hot --seed 1 --seconds 20 --trace 0
#
# Everything it writes (Go build cache and config, binary, stores, spans)
# goes under $CARGO_TARGET_DIR, default .bench_build, in the current
# directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out" "$@"
