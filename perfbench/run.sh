#!/usr/bin/env bash
# Builds the pipeline benchmark from the checkout's sources, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload <ingest|live|query|replay|all> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and every scratch file of a run stay under
# .bench_build/ in the current directory. A failed build exits non-zero
# without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out/work" "$@"
