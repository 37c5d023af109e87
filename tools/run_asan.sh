#!/usr/bin/env bash
# Build the memory layer under AddressSanitizer + UBSan and run the
# tensor-, nn-, campaign-, batched-, backend- and steering-labeled
# tests (TensorArena borrows, workspace slot lifetimes, the `_into`
# kernels, the campaign paths that consume them, the packed-unit record
# rewriting of DESIGN.md §12, the AVX2 kernels of DESIGN.md §13 —
# vectorized loads near tensor tails are exactly where ASan earns its
# keep — and the budgeted-steering round loop of DESIGN.md §16, which
# re-reads unit payloads at the round barrier) — plus the parser-,
# injection- and cli-labeled suites (JSON/YAML/CSV/binary/serialize
# decoders, scenario, injector, wrapper, the alfi binary's argument
# checks).  Usage:
#
#   tools/run_asan.sh [extra ctest args...]
#
# Uses the "asan" CMake preset (build dir: build-asan).  Any extra
# arguments are forwarded to ctest, e.g. `tools/run_asan.sh -V`.
# The ThreadSanitizer sibling for the concurrency layer is
# tools/run_tsan.sh.
set -euo pipefail

cd "$(dirname "$0")/.."

cmake --preset asan
cmake --build --preset asan -j "$(nproc)"
ctest --preset asan "$@"
