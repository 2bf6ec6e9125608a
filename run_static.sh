#!/bin/bash
# Static-analysis gate for the Chameleon tree. Runs, in order:
#
#   1. tools/test_cham_lint.py  self-tests of the lint rules themselves (a
#                               broken regex must fail the gate, not silently
#                               stop catching violations)
#   2. tools/cham_lint.py       repo-specific contract rules (src/bench/tests)
#   3. clang-tidy               bugprone/concurrency/performance checks over
#                               src/, if clang-tidy is installed (skipped with
#                               a notice otherwise -- the container ships only
#                               gcc; the lint + -Werror + UBSan stages still
#                               gate every commit)
#   4. thread-safety analysis   clang -Werror=thread-safety build of the
#                               concurrent components (capability annotations
#                               in util/sync.h), if clang++ is installed
#                               (skipped with a notice otherwise; the
#                               annotations are no-ops under gcc)
#   5. -Werror build            full tree (default CHAM_CHECKS=cheap tier)
#                               with warnings promoted to errors
#   6. UBSan test pass          -fsanitize=undefined -fno-sanitize-recover,
#                               whole suite must pass with zero UB reports
#   7. CHAM_SIMD=avx2 leg       the kernel bit-identity suites (test_gemm,
#                               test_observe_path, test_gather_path) on the
#                               AVX2 kernels: on an AVX-512 host the default
#                               build runs the 8x32 ZMM tile for n > 16, the
#                               16-row tall tile for n <= 8 and the lane
#                               depthwise kernels instead; and
#                               test_checkpoint, so real session blobs
#                               round-trip through the scalar byte-mask
#                               codec (the default build runs its VBMI2
#                               path)
#   8. ASan+UBSan leg           test_checkpoint, test_memories,
#                               test_serialize_augment, test_gemm, test_nn,
#                               test_gradients, test_observe_path,
#                               test_contracts and test_gather_path,
#                               test_net's NetProtocol.* cases and
#                               test_serve's disk-restore cases, under
#                               -fsanitize=address,undefined: the suites
#                               that feed forged bytes to the checkpoint,
#                               slot-store and batch decoders (the wire and
#                               the CHS3 op logs share one batch codec, and
#                               CHS2 blobs the same util::Reader), the
#                               SessionStore restores that decode stored
#                               files and replay their op logs, the
#                               GEMM tiles' masked K tails and row tails,
#                               where an out-of-bounds read shows up as a
#                               report, not a failure, and the train steps
#                               that bind gradient buffers from the
#                               workspace pool and release them within the
#                               step, where a write into a released buffer
#                               must fail loudly, and the layer backwards
#                               that release their forward's x-hat, mask,
#                               input copy and row table on return, where a
#                               read of a released one must too
#
# Exits non-zero on the first failing stage. run_all.sh invokes this before
# regenerating any outputs; set CHAM_SKIP_STATIC=1 there to bypass during
# quick local iteration (CI must never set it).
set -u
cd "$(dirname "$0")"

fail() { echo "run_static.sh: FAILED at stage: $1" >&2; exit 1; }

echo "=== [1/8] cham_lint self-tests ==="
python3 tools/test_cham_lint.py || fail "cham_lint self-tests"

echo "=== [2/8] cham_lint ==="
python3 tools/cham_lint.py src bench tests || fail "cham_lint"

echo "=== [3/8] clang-tidy ==="
if command -v clang-tidy >/dev/null 2>&1; then
  # clang-tidy needs a compilation database; any configured build dir has one
  # (CMAKE_EXPORT_COMPILE_COMMANDS is ON in CMakeLists.txt).
  TIDY_DIR=build
  [ -f "$TIDY_DIR/compile_commands.json" ] || \
    cmake -B "$TIDY_DIR" -S . >/dev/null || fail "clang-tidy (cmake configure)"
  mapfile -t TIDY_SOURCES < <(find src -name '*.cpp' | sort)
  clang-tidy -p "$TIDY_DIR" --quiet "${TIDY_SOURCES[@]}" || fail "clang-tidy"
else
  echo "clang-tidy not installed; skipping (gcc-only container)."
fi

echo "=== [4/8] clang thread-safety analysis ==="
if command -v clang++ >/dev/null 2>&1; then
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCHAM_THREAD_SAFETY=ON >/dev/null \
    || fail "thread-safety (cmake configure)"
  cmake --build build-tsa -j"$(nproc)" || fail "thread-safety analysis"
else
  echo "clang++ not installed; skipping (annotations are no-ops under gcc)."
fi

echo "=== [5/8] -Werror build ==="
cmake -B build-werror -S . -DCHAM_WERROR=ON >/dev/null \
  || fail "-Werror (cmake configure)"
cmake --build build-werror -j"$(nproc)" || fail "-Werror build"

echo "=== [6/8] UBSan test pass ==="
cmake -B build-ubsan -S . -DCHAM_SANITIZE=undefined >/dev/null \
  || fail "UBSan (cmake configure)"
cmake --build build-ubsan -j"$(nproc)" || fail "UBSan build"
ctest --test-dir build-ubsan --output-on-failure || fail "UBSan test suite"

echo "=== [7/8] CHAM_SIMD=avx2 kernel suites ==="
cmake -B build-avx2 -S . -DCHAM_SIMD=avx2 >/dev/null \
  || fail "CHAM_SIMD=avx2 (cmake configure)"
cmake --build build-avx2 -j"$(nproc)" \
  --target test_gemm test_observe_path test_gather_path test_checkpoint \
  || fail "CHAM_SIMD=avx2 build"
for t in test_gemm test_observe_path test_gather_path test_checkpoint; do
  ./build-avx2/tests/"$t" --gtest_brief=1 || fail "CHAM_SIMD=avx2 $t"
done

echo "=== [8/8] ASan+UBSan decoder, kernel and train-step suites ==="
cmake -B build-aubsan -S . -DCHAM_SANITIZE=address-undefined >/dev/null \
  || fail "ASan+UBSan (cmake configure)"
cmake --build build-aubsan -j"$(nproc)" \
  --target test_checkpoint test_memories test_serialize_augment test_gemm \
  test_nn test_gradients test_observe_path test_contracts test_gather_path \
  test_net test_serve \
  || fail "ASan+UBSan build"
for t in test_checkpoint test_memories test_serialize_augment test_gemm \
  test_nn test_gradients test_observe_path test_contracts test_gather_path; do
  ./build-aubsan/tests/"$t" --gtest_brief=1 || fail "ASan+UBSan $t"
done
./build-aubsan/tests/test_net --gtest_brief=1 --gtest_filter='NetProtocol.*' \
  || fail "ASan+UBSan test_net NetProtocol.*"
./build-aubsan/tests/test_serve --gtest_brief=1 \
  --gtest_filter='ServeSuite.SessionStoreLifecycle:ServeSuite.OpLogDeltaRestoreReplaysFromDisk:ServeSuite.StaleDeltaIsIgnoredOnLoad:ServeSuite.LegacyChunkDeltaIsRejectedOnLoad' \
  || fail "ASan+UBSan test_serve disk restores"

echo "run_static.sh: all stages passed"
