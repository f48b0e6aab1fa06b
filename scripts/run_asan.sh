#!/usr/bin/env bash
# Builds the whole tree under AddressSanitizer + UndefinedBehaviorSanitizer
# and runs every ctest except the perfbench self-test. Any out-of-bounds
# access, use-after-free, leak, signed overflow or misaligned load fails the
# run: UBSan is built with -fno-sanitize-recover, and ASan halts on the
# first error by default. _GLIBCXX_ASSERTIONS adds libstdc++'s bounds checks
# on vector/span indexing. The tree builds with -DDSMCPIC_WERROR=ON, so a
# new compiler warning fails the lane too.
#
#   scripts/run_asan.sh [build-dir] [jobs]
#
# The perfbench self-test is left out because it builds its own
# uninstrumented benchmark tree. See scripts/run_tsan.sh for the
# ThreadSanitizer lane.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD="${1:-build-asan}"
JOBS="${2:-2}"

cmake -B "$BUILD" -S . -G Ninja \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDSMCPIC_SANITIZE=address,undefined \
  -DDSMCPIC_WERROR=ON \
  -DCMAKE_CXX_FLAGS=-D_GLIBCXX_ASSERTIONS
cmake --build "$BUILD" -j "$JOBS"

export ASAN_OPTIONS="detect_leaks=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1 halt_on_error=1 ${UBSAN_OPTIONS:-}"

(cd "$BUILD" && ctest -LE perfbench -j "$JOBS" --output-on-failure)

echo "ASan+UBSan sweep clean."
