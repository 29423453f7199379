#!/usr/bin/env bash
# Builds the project with AddressSanitizer + UndefinedBehaviorSanitizer and
# runs the robustness suites (the tests labeled `asan`): the core operator,
# flow and Algorithm 1 correctness suites, fault injection, hostile-input
# ingestion, and degraded-mode correctness. A clean run is a
# merge gate for changes touching src/io/, src/common/failpoint.*, or the
# engine's failure paths.
#
# A second, failpoints-OFF build then re-runs the `failpoint` suite to
# prove the injection sites compile out completely inert (armed triggers
# must change nothing when the sites are absent).
#
# Usage: scripts/check_asan.sh [build-dir]   (default: build-asan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-asan}"
TARGETS="dominance_test nnc_test flow_test \
  failpoint_test io_hardening_test io_test degraded_mode_test \
  engine_resilience_test obs_test mem_budget_test kernels_test \
  net_protocol_test net_hardening_test net_server_test \
  versioned_dataset_test durability_test shared_cache_test"

cmake -B "$BUILD_DIR" -S . \
  -DOSD_SANITIZE=address \
  -DOSD_FAILPOINTS=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" -j"$(nproc)" --target $TARGETS

# halt_on_error fails the run on the first report instead of continuing.
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR" -L asan --output-on-failure

cmake -B "$BUILD_DIR-off" -S . \
  -DOSD_SANITIZE=address \
  -DOSD_FAILPOINTS=OFF \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR-off" -j"$(nproc)" \
  --target failpoint_test engine_resilience_test mem_budget_test \
  net_server_test durability_test
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR-off" -L failpoint --output-on-failure

echo "check_asan: OK (ASan/UBSan clean; failpoint sites inert when OFF)"
