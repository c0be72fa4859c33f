#!/usr/bin/env bash
# Builds and runs the II perf harness and publishes BENCH_ii.json at the
# repo root (the checked-in copy EXPERIMENTS.md references). The run is
# checked against bench/thresholds.json first: a run that fails the check
# exits non-zero and leaves BENCH_ii.json untouched, so the published file
# always passes its own gate. Pass --quick for the small CI configuration.
#
# Usage: tools/bench_ii.sh [--quick]
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" -j"$(nproc)" --target bench_ii_kernels >/dev/null

tmp="$(mktemp BENCH_ii.json.XXXXXX)"
trap 'rm -f "$tmp"' EXIT
if ! "$BUILD_DIR/bench/bench_ii_kernels" --json="$tmp" \
    --check=bench/thresholds.json "$@"; then
  echo "bench_ii.sh: check failed; BENCH_ii.json left as it was" >&2
  exit 1
fi
mv "$tmp" BENCH_ii.json
