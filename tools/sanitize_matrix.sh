#!/usr/bin/env bash
# Sanitizer matrix (docs/CORRECTNESS.md "Sanitizer matrix"):
#
#   asan_ubsan  full test suite under AddressSanitizer + UndefinedBehavior-
#               Sanitizer, with SRBB_PARANOID invariant sweeps compiled in —
#               memory errors and UB anywhere in the tier-1 surface.
#   tsan        the concurrency-sensitive subset (parallel executor, oracle
#               parallel path, thread pool, validation
#               pipeline, batch signature verify) under ThreadSanitizer,
#               via tools/tsan_check.sh.
#               TSan and ASan cannot share a process, hence the separate leg.
#
# Usage: tools/sanitize_matrix.sh [asan_ubsan|tsan|all]   (default: all)
# Build trees: build-asan-ubsan/ and build-tsan/ next to build/.
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
leg="${1:-all}"

run_asan_ubsan() {
  local build_dir="$repo_root/build-asan-ubsan"
  cmake -B "$build_dir" -S "$repo_root" \
        -DSRBB_SANITIZE=address,undefined -DSRBB_PARANOID=ON \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$build_dir" -j "$(nproc)"
  # The EVM executes nested CALLs by native recursion; the 1024-frame depth
  # limit fits the default 8 MiB stack uninstrumented, but ASan redzones
  # inflate each frame several-fold, so give the test processes more stack.
  ulimit -s 65536 || true
  # halt_on_error so UBSan findings fail the run instead of just logging.
  UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
  ASAN_OPTIONS=detect_leaks=1 \
    ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)"
}

run_tsan() {
  "$repo_root/tools/tsan_check.sh" "$repo_root/build-tsan"
}

case "$leg" in
  asan_ubsan) run_asan_ubsan ;;
  tsan)       run_tsan ;;
  all)        run_asan_ubsan; run_tsan ;;
  *)
    echo "usage: $0 [asan_ubsan|tsan|all]" >&2
    exit 2
    ;;
esac
