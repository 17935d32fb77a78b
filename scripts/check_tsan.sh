#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer and runs the concurrency-labeled
# tests under it: the cancellation/deadline plumbing, the ThreadPool, and
# the concurrent ExpansionService (worker pool, single-flight dedup,
# circuit breaker, mid-flight cancellation stress). Only tests labeled
# "concurrency" run (see tests/CMakeLists.txt).
# Usage: scripts/check_tsan.sh [extra ctest args...]
set -euo pipefail
cd "$(dirname "$0")/.."

export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

if cmake --preset tsan >/dev/null 2>&1; then
  cmake --build --preset tsan -j "$(nproc)"
  ctest --preset tsan -j "$(nproc)" "$@"
else
  # Older CMake without preset support: configure by hand.
  cmake -B build-tsan -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -O1" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
  cmake --build build-tsan -j "$(nproc)"
  ctest --test-dir build-tsan -L concurrency --output-on-failure \
    -j "$(nproc)" "$@"
fi
