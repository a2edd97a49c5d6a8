#!/usr/bin/env bash
# Full local check: concurrency lint, plain build + ctest, then the same
# suite under ThreadSanitizer and UndefinedBehaviorSanitizer (the runtime is
# aggressively threaded — one comm thread per rank — so TSan is the check
# that matters most here; UBSan guards the tag bit-packing and span math),
# and the simulator, tuner, calibration, perf-lab, flag, fusion-plan and
# dense-kernel tests under AddressSanitizer + UBSan (the engine's packed
# task refs and repetition rings, the acquisition cache's strided rows, the
# offline fit's reads of damaged journals, the loaders' and flag parser's
# reads of mutated input, the plans' cut and range indices, the SSE tile
# offsets).
#
#   tools/check.sh             # lint + plain + perf gate/bars + tsan + ubsan
#                              #   + asan/ubsan (sim, tuner, calib, perflab, flags,
#                              #     fusion plans, dense kernels, metric
#                              #     export, buffer pool)
#   tools/check.sh --quick     # lint + plain build + unit tests + short chaos
#   tools/check.sh --no-tsan   # skip the TSan pass (e.g. unsupported host)
#   tools/check.sh --no-ubsan  # skip the UBSan pass
#   tools/check.sh --no-asan   # skip the ASan + UBSan pass
#   tools/check.sh --no-bench  # skip the perf-lab gate and bars
#
# Test tiers are CTest LABELS (unit/integration/stress/fuzz/chaos); the full
# run executes all of them. Fuzz- and chaos-labelled tests scale their
# schedule budgets with DEAR_FUZZ_SCHEDULES / DEAR_CHAOS_SCHEDULES (PR CI
# keeps them small, the nightly long jobs raise them), and every wall-clock
# margin stretches with
# DEAR_TIMEOUT_MULT — sanitizer runs here set it so TSan's slowdown never
# needs hand-tuned margins.
set -euo pipefail

cd "$(dirname "$0")/.."
jobs=$(nproc 2>/dev/null || echo 4)
run_tsan=1
run_ubsan=1
run_asan=1
run_bench=1
quick=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    --no-tsan) run_tsan=0 ;;
    --no-ubsan) run_ubsan=0 ;;
    --no-asan) run_asan=0 ;;
    --no-bench) run_bench=0 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "== concurrency lint =="
python3 tools/lint.py --selftest
python3 tools/lint.py

echo "== plain build =="
cmake -B build -S . >/dev/null
cmake --build build -j "$jobs" >/dev/null
if [[ "$quick" == 1 ]]; then
  ctest --test-dir build --output-on-failure -L unit
  echo "== short chaos budget =="
  # A couple of seeded crash/rejoin schedules so elastic-membership breakage
  # surfaces in the quick loop too; the nightly chaos-long job is the
  # thorough pass (DEAR_CHAOS_SCHEDULES scales the budget).
  DEAR_CHAOS_SCHEDULES="${DEAR_CHAOS_SCHEDULES:-2}" \
    ctest --test-dir build --output-on-failure -L chaos
  echo "== doctor selftest =="
  # Model self-consistency: the sim backend fits CostModel-predicted
  # durations, so the fitted alpha-beta must recover the preset and the
  # verdict must be "pass" (exit 0).
  ./build/tools/dearsim doctor --backend sim --world 16
  echo "OK (quick: unit label + short chaos budget + doctor selftest)"
  exit 0
fi
ctest --test-dir build --output-on-failure

if [[ "$run_bench" == 1 ]]; then
  echo "== perf-lab regression gate =="
  # Hard-fails locally (unlike CI's warn-only pass): metric thresholds are
  # embedded per metric — tight for deterministic simulator numbers, 3x for
  # wall-clock — so a real machine still gates meaningfully.
  python3 tools/perf_gate.py --selftest
  ./build/tools/dearsim bench --suite quick --json-out BENCH_quick.json
  python3 tools/perf_gate.py bench/baselines/BENCH_quick.json BENCH_quick.json
  echo "== perf-lab bars (full view) =="
  # Every hard bar in the measurement table, timing bars included; exits
  # non-zero if any bar fails.
  ./build/tools/dearsim bench --suite full --json-out BENCH_full.json
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== thread-sanitizer build =="
  cmake -B build-tsan -S . -DDEAR_SANITIZE=thread >/dev/null
  cmake --build build-tsan -j "$jobs" >/dev/null
  DEAR_TIMEOUT_MULT="${DEAR_TIMEOUT_MULT:-4}" \
    ctest --test-dir build-tsan --output-on-failure
fi

if [[ "$run_ubsan" == 1 ]]; then
  echo "== undefined-behavior-sanitizer build =="
  cmake -B build-ubsan -S . -DDEAR_SANITIZE=undefined >/dev/null
  cmake --build build-ubsan -j "$jobs" >/dev/null
  DEAR_TIMEOUT_MULT="${DEAR_TIMEOUT_MULT:-2}" \
    ctest --test-dir build-ubsan --output-on-failure
fi

if [[ "$run_asan" == 1 ]]; then
  echo "== address + undefined-behavior sanitizer build (simulator, tuner, calib, perf lab, flags, fusion plans, dense kernels, metric export, buffer pool) =="
  asan_tests=(engine_test policies_test multiworker_test runner_test
              golden_sim_test gp_test search_test calib_test perflab_test
              flags_test plan_test mlp_test telemetry_test buffer_pool_test)
  cmake -B build-asan -S . -DDEAR_SANITIZE=address,undefined >/dev/null
  cmake --build build-asan -j "$jobs" --target "${asan_tests[@]}" >/dev/null
  # engine_fold_property is engine_test's fold property, a ctest entry of
  # its own.
  ctest --test-dir build-asan --output-on-failure \
    -R "^($(IFS='|'; echo "${asan_tests[*]}")|engine_fold_property)\$"
fi

echo "OK"
