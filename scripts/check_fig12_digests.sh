#!/usr/bin/env bash
# Answer gate for the slowest benchmark cells: builds fig12_time_datasets
# in Release, runs it once, and fails if any (dataset, operator) cell's
# answer digest differs from the one recorded in BENCH_kernels.json by
# scripts/run_benches.sh. Times are printed but never checked, so the gate
# is as stable as the answers are deterministic.
#
# Usage: scripts/check_fig12_digests.sh [build-dir]   (default: build-bench)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-bench}"
OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
cmake --build "$BUILD_DIR" -j"$(nproc)" --target fig12_time_datasets
"$BUILD_DIR/bench/fig12_time_datasets" | tee "$OUT"
python3 scripts/fig12_tables.py check BENCH_kernels.json "$OUT"
