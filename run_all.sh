#!/bin/bash
# Regenerates test_output.txt and bench_output.txt (every table/figure).
#
# Static-analysis gate: run_static.sh (cham_lint + clang-tidy when present +
# -Werror build + UBSan test pass) must exit 0 before any output is
# regenerated. CHAM_SKIP_STATIC=1 bypasses it for quick local iteration.
#
# Sanitizer hook: CHAM_SANITIZE=thread|address runs the test suite in a
# dedicated sanitizer build first (build-tsan/ or build-asan/) and aborts on
# any sanitizer-reported failure before touching the regular outputs.
# CHAM_RUN_TSAN=1 is shorthand for the thread leg: it builds build-tsan/
# (which also registers the TSan-gated serve race stress test,
# tests/test_serve_race.cpp) and runs the suite under TSan.
cd /root/repo
if [ -z "${CHAM_SKIP_STATIC:-}" ]; then
  ./run_static.sh || { echo "run_all.sh: static analysis failed" >&2; exit 1; }
fi
if [ -n "${CHAM_RUN_TSAN:-}" ] && [ -z "${CHAM_SANITIZE:-}" ]; then
  CHAM_SANITIZE=thread
fi
if [ -n "${CHAM_SANITIZE:-}" ]; then
  case "$CHAM_SANITIZE" in
    thread) SAN_DIR=build-tsan ;;
    address) SAN_DIR=build-asan ;;
    *) echo "CHAM_SANITIZE must be 'thread' or 'address'" >&2; exit 1 ;;
  esac
  cmake -B "$SAN_DIR" -S . -DCHAM_SANITIZE="$CHAM_SANITIZE" || exit 1
  cmake --build "$SAN_DIR" -j || exit 1
  ctest --test-dir "$SAN_DIR" --output-on-failure || exit 1
  echo "sanitizer ($CHAM_SANITIZE) suite passed"
fi
ctest --test-dir build 2>&1 | tee /root/repo/test_output.txt
# The end-to-end benchmark (perfbench/, driven by `python3 perfbench/run.py`)
# builds the serving libraries from src/ in its own CMake package. Build it
# and run its unit tests (no timed runs) so a src/ change that breaks the
# benchmark fails the regeneration.
cmake -S perfbench -B .bench_build/perfbench >/dev/null &&
  cmake --build .bench_build/perfbench -j "$(nproc)" &&
  ctest --test-dir .bench_build/perfbench --output-on-failure ||
  { echo "run_all.sh: perfbench build or unit tests failed" >&2; exit 1; }
# Gated benches (bench_kernels: head-gemm speedup/steady-state zero-alloc;
# bench_observe: zero-alloc/zero-stacking/backward-MAC/ledger) exit non-zero
# when a gate fails; record the failure in the archive and fail the whole
# regeneration at the end. The serving, wire and thread-pool gates are
# deterministic ctest cases (README "Where each gate lives"); their
# timing is perfbench's.
for b in build/bench/*; do
  if [ -f "$b" ] && [ -x "$b" ]; then
    echo "===== $b ====="
    "$b" || echo "GATE_FAILURE $b"
  fi
done 2>&1 | tee /root/repo/bench_output.txt
# bench_kernels and bench_observe emit JSON perf artefacts into the repo root
# (they run with the repo root as cwd); record them next to the text outputs
# so the kernel and observe trajectory is versioned with each commit.
for j in BENCH_kernels.json BENCH_observe.json; do
  if [ -f "/root/repo/$j" ]; then
    echo "archived $j" >> /root/repo/bench_output.txt
  else
    echo "run_all.sh: expected $j was not produced" >&2
    echo "MISSING $j" >> /root/repo/bench_output.txt
  fi
done
if grep -q "^GATE_FAILURE" /root/repo/bench_output.txt; then
  echo "run_all.sh: bench gate failure (see bench_output.txt)" >&2
  echo BENCH_GATE_FAILED >> /root/repo/bench_output.txt
  exit 1
fi
# Trend gate: fresh artefacts vs the committed bench/baselines/ snapshots.
# Fails the regeneration on a >25% regression in any gated metric (see
# tools/bench_compare.py for the metric list and directions).
python3 tools/bench_compare.py 2>&1 | tee -a /root/repo/bench_output.txt
if [ "${PIPESTATUS[0]}" -ne 0 ]; then
  echo "run_all.sh: bench_compare regression (see bench_output.txt)" >&2
  echo BENCH_COMPARE_FAILED >> /root/repo/bench_output.txt
  exit 1
fi
echo ALL_DONE >> /root/repo/bench_output.txt
