#!/usr/bin/env bash
# Sanitizer gate, two lanes. The first builds the tree with AddressSanitizer
# + UBSan and runs the fast `smoke`-labelled test suites under it; those
# include the `golden` corpus diffs (tests/golden/), so every checked-in
# redcr_cli output is also reproduced byte for byte under the sanitizers.
# The second builds the multi-threaded suites (ctest label `threads`:
# test_util, test_exp, test_planner, test_engine_perf_semantics and the
# redcr_cli serve replay) with ThreadSanitizer and runs them. Intended as
# the pre-merge check; a plain build stays untouched in ./build.
#
# Usage: scripts/check.sh [asan-build-dir] [tsan-build-dir]
#        (defaults: build-san, build-tsan)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build-san}"
TSAN_DIR="${2:-build-tsan}"
JOBS="$(nproc 2>/dev/null || echo 4)"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DREDCR_SANITIZE="address;undefined"
cmake --build "$BUILD_DIR" -j "$JOBS"

# halt_on_error: a UBSan diagnostic must fail the gate, not just print.
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1"
ctest --test-dir "$BUILD_DIR" -L smoke --output-on-failure -j "$JOBS"

echo "check.sh: sanitizer smoke suite passed"

cmake -B "$TSAN_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DREDCR_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" --target \
  test_util test_exp test_planner test_engine_perf_semantics redcr_cli

# halt_on_error: the first data race or lock-order report fails its test.
export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"
ctest --test-dir "$TSAN_DIR" -L threads --output-on-failure -j "$JOBS"

echo "check.sh: thread sanitizer suite passed"
