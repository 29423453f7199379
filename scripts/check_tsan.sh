#!/usr/bin/env bash
# Builds the project with ThreadSanitizer and runs the engine concurrency
# suite (the tests labeled `tsan`). Zero reported races is a merge gate for
# changes touching src/engine/ or the shared lazy caches in src/object/.
#
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-tsan}"

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

# Failpoints are compiled in so the resilience suite can inject faults
# into concurrent executions (failure paths are where races would hide).
cmake -B "$BUILD_DIR" -S . \
  -DOSD_SANITIZE=thread \
  -DOSD_FAILPOINTS=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
TARGETS="$(label_targets "$BUILD_DIR" tsan)"
# shellcheck disable=SC2086
cmake --build "$BUILD_DIR" -j"$(nproc)" --target $TARGETS

# halt_on_error makes a detected race fail the test run rather than just
# printing a report.
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --test-dir "$BUILD_DIR" -L tsan --output-on-failure

echo "check_tsan: OK (no data races reported)"
