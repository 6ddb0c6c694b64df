#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the repository root:
#
#   bash bench/run.sh --workload serve --seed 1 --seconds 12 --trace 0
#   bash bench/run.sh compare old.jsonl new.jsonl
#
# Everything the build and the run write stays under .bench_build in
# the checkout: the Go build cache, temporary files, the toolchain's own
# state, the daemon binary, the daemons' snapshot logs and the records
# file.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd bench && go build -o "$out/bin/bench" .)
exec "$out/bin/bench" "$@"
