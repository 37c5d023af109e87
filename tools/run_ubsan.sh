#!/usr/bin/env bash
# Build under UndefinedBehaviorSanitizer only (no ASan overhead, traps
# are non-recoverable) and run the tensor-, nn-, campaign-,
# telemetry-, batched-, backend- and steering-labeled tests: the
# bit-flip/stuck-at bit twiddling, arena offset arithmetic, batch-slot
# remap arithmetic, the differential-inference prefix bookkeeping, the
# stored-code (fp16/int8) quantization paths and the Wilson-interval
# arithmetic driving budgeted steering are the layers where silent UB
# would corrupt campaign verdicts.  The parser-, injection- and
# cli-labeled suites (decoders, scenario, injector, wrapper, the alfi
# binary's argument checks) run as well.
# Usage:
#
#   tools/run_ubsan.sh [extra ctest args...]
#
# Uses the "ubsan" CMake preset (build dir: build-ubsan).  Any extra
# arguments are forwarded to ctest, e.g. `tools/run_ubsan.sh -V`.
# Siblings: tools/run_asan.sh (memory layer), tools/run_tsan.sh
# (concurrency layer).
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset ubsan
cmake --build --preset ubsan -j "$(nproc)"
ctest --preset ubsan "$@"
