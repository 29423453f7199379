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

# The executables behind `ctest -L $2` in build dir $1, on one line. Each
# test is named after its executable (osd_add_test in tests/CMakeLists.txt),
# so the labels alone decide what gets built, and the build covers exactly
# what the ctest run below selects.
label_targets() {
  local targets
  targets="$(ctest --test-dir "$1" -N -L "$2" |
    sed -n 's/^ *Test *#[0-9]*: //p' | tr '\n' ' ')"
  if [[ -z "${targets// /}" ]]; then
    echo "no tests labeled '$2' in $1" >&2
    return 1
  fi
  echo "$targets"
}

cmake -B "$BUILD_DIR" -S . \
  -DOSD_SANITIZE=address \
  -DOSD_FAILPOINTS=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
TARGETS="$(label_targets "$BUILD_DIR" asan)"
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
TARGETS="$(label_targets "$BUILD_DIR-off" failpoint)"
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR-off" -j"$(nproc)" --target $TARGETS
ASAN_OPTIONS="halt_on_error=1 detect_leaks=1" \
UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1" \
  ctest --test-dir "$BUILD_DIR-off" -L failpoint --output-on-failure

echo "check_asan: OK (ASan/UBSan clean; failpoint sites inert when OFF)"
