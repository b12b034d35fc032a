#!/usr/bin/env bash
# Builds the session benchmark from source into .bench_build (with its
# own Go build cache, so a run reads and writes only inside the
# checkout) and runs it with the given arguments, e.g.
#
#   bash sessionbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
(cd "$root/sessionbench" && go build -o "$out/sessionbench" .)
exec "$out/sessionbench" "$@"
