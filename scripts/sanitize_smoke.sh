#!/usr/bin/env bash
# Builds the unit tests under sanitizers and runs them.
#
#   scripts/sanitize_smoke.sh            # ASan + UBSan + float-cast-overflow
#   scripts/sanitize_smoke.sh --tsan     # ThreadSanitizer preset
#   scripts/sanitize_smoke.sh --tsan concurrency_test obs_test   # subset
#
# The obs metrics layer is lock-free atomics hammered from ThreadPool
# workers; this script is the cheap race/UB check for it and for the rest of
# the library. Benches and examples are skipped — unit tests only.
set -euo pipefail

cd "$(dirname "$0")/.."

# -fsanitize=undefined leaves out float-cast-overflow (such as a double at
# or past 2^64 cast to size_t), so the preset names it.
preset="address;undefined;float-cast-overflow"
build_dir="build-asan"
if [[ "${1:-}" == "--tsan" ]]; then
  preset="thread"
  build_dir="build-tsan"
  shift
fi

cmake -B "$build_dir" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DMBI_SANITIZE="$preset" \
  -DMBI_BUILD_BENCHMARKS=OFF \
  -DMBI_BUILD_EXAMPLES=OFF
cmake --build "$build_dir" -j"$(nproc)"

cd "$build_dir"
# UBSan reports and carries on by default, which a passing ctest hides; halt
# instead, so a report fails its test and --output-on-failure prints it.
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
if [[ $# -gt 0 ]]; then
  tests_regex="$(IFS='|'; echo "$*")"
  ctest --output-on-failure -j"$(nproc)" -R "^(${tests_regex})$"
else
  ctest --output-on-failure -j"$(nproc)"
fi
echo "sanitize smoke (${preset}) passed"
