#!/usr/bin/env bash
# Local CI pipeline — the gating jobs of .github/workflows/ci.yml (the
# workflow's extra failover-smoke job is reporting-only and runs the
# bench/failover table as a per-push artifact), runnable on any machine
# with the base toolchain:
#
#   1. plain    : dev preset build + full ctest
#   2. sanitize : asan-ubsan preset build + ctest -L sanitize
#   3. tsan     : tsan preset build + ctest -L sanitize — the race gate for
#                 sim/parallel_sweep and the work-stealing pool
#   4. analyze  : tools/run_static_analysis.sh (clang-tidy or fallback,
#                 plus the rt-lint RT-safety gate)
#   5. perf     : micro_dsp hot-path benches + tools/bench_gate.py against
#                 the committed BENCH_baseline.json (DESIGN.md §10); each
#                 time is the minimum of three repetitions, the statistic
#                 the baseline records
#   6. soak-smoke : `soak mesh` (bench/soak) on a short multi-seed
#                 schedule — the mesh-resilience invariants (never louder
#                 than passive, bounded re-acquisition, allocation-free
#                 steady state) under randomized fault chaos; writes
#                 soak-report.json, then re-runs on one worker and cmps
#                 the two reports (DESIGN.md §12)
#   7. fleet-smoke : `soak fleet` (bench/soak) on a small churned tenant
#                 fleet — per-tenant never-louder verdicts plus the zero
#                 worker-lane heap traffic contract of the fleet runtime;
#                 writes fleet-soak-report.json (DESIGN.md §14)
#   8. e2e-smoke : the fleet-serving benchmark (bench/e2e) on every
#                 workload, small and traced — its correctness gates
#                 (single-tenant bit identity, never louder, zero steady
#                 allocations, exact ledger replay) and trace checks;
#                 writes e2e-smoke-report.json (bench/e2e/README.md)
#
# `rt-lint` is also available standalone (subset of analyze): it re-runs
# only the static RT-safety gate, seconds instead of a full tidy sweep.
#
# Usage: tools/ci.sh [plain|sanitize|tsan|analyze|rt-lint|perf|soak-smoke|
#                     fleet-smoke|e2e-smoke]...
#        (default: plain sanitize tsan analyze perf soak-smoke fleet-smoke
#         e2e-smoke)
#
# Every ctest run carries --timeout 900: a hung test (deadlock, runaway
# convergence loop) fails after 15 minutes instead of wedging the job.

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${CI_JOBS:-$(nproc)}"
cd "$ROOT"

run_plain() {
  echo "=== job: plain build + ctest ==="
  cmake --preset dev
  cmake --build --preset dev -j "$JOBS"
  ctest --preset dev -j "$JOBS" --timeout 900
}

run_sanitize() {
  echo "=== job: asan-ubsan build + ctest -L sanitize ==="
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$JOBS"
  ctest --preset asan-ubsan -j "$JOBS" --timeout 900
}

run_tsan() {
  echo "=== job: tsan build + ctest -L sanitize ==="
  cmake --preset tsan
  cmake --build --preset tsan -j "$JOBS"
  ctest --preset tsan -j "$JOBS" --timeout 900
}

run_analyze() {
  echo "=== job: static analysis (incl. rt-lint) ==="
  tools/run_static_analysis.sh
}

run_rt_lint() {
  echo "=== job: rt-lint (static RT-safety gate) ==="
  tools/run_static_analysis.sh --rt-lint-only
}

# Calibration + every benchmark bench_gate.py pins (plus their other tap
# sizes, informational). The perf-smoke workflow job runs this function.
BENCH_FILTER='BM_Calibration|BM_Kernel|BM_Fft/|BM_FirFilterPerSample|BM_FxlmsCycle|BM_AdaptiveFirStep|BM_ShadowObserve|BM_FleetThroughput|BM_DeviceTick|BM_RelaySelectRound|BM_LancTick/|BM_LinkMonitor|BM_FmModDemod|BM_Resample16kTo256k'

run_perf() {
  echo "=== job: perf smoke (bench_gate) ==="
  cmake --preset dev
  cmake --build --preset dev -j "$JOBS" --target micro_dsp
  ./build-dev/bench/micro_dsp \
    --benchmark_filter="$BENCH_FILTER" \
    --benchmark_min_time=0.3 \
    --benchmark_repetitions=3 \
    --json bench-current.json
  python3 tools/bench_gate.py bench-current.json
}

# Short but real chaos: 3 seeds of randomized fault episodes on a 4-relay
# mesh (~30 s on one core, seeds run in parallel where cores allow). Exits
# non-zero on any invariant violation; the JSON verdict is the CI artifact.
# A second run on one worker must write the same bytes: the seeds' sweep
# and each mesh's parallel relay synthesis must not depend on the worker
# count (DESIGN.md §10.4).
run_soak_smoke() {
  echo "=== job: soak smoke (chaos invariants) ==="
  cmake --preset dev
  cmake --build --preset dev -j "$JOBS" --target soak
  ./build-dev/bench/soak mesh \
    --relays 4 --duration 8 --seeds 3 --json soak-report.json
  MUTE_SWEEP_THREADS=1 ./build-dev/bench/soak mesh \
    --relays 4 --duration 8 --seeds 3 --json soak-report-1worker.json
  cmp soak-report.json soak-report-1worker.json
}

# Small but real fleet churn: mixed profiles (one with a scripted relay
# dropout), admit/drain rounds, per-tenant never-louder verdicts, and the
# zero worker-lane heap allocation contract. Exits non-zero on any
# violation; the JSON verdict is the CI artifact. A second run on one
# worker must write the same bytes (the report has no wall-clock field):
# the fleet's lanes and the parallel relay synthesis of its two-relay RF
# profile must not depend on the worker count (DESIGN.md §10.4).
run_fleet_smoke() {
  echo "=== job: fleet smoke (multi-tenant runtime invariants) ==="
  cmake --preset dev
  cmake --build --preset dev -j "$JOBS" --target soak
  ./build-dev/bench/soak fleet \
    --devices 64 --sim-seconds 3 --json fleet-soak-report.json
  MUTE_SWEEP_THREADS=1 ./build-dev/bench/soak fleet \
    --devices 64 --sim-seconds 3 --json fleet-soak-report-1worker.json
  cmp fleet-soak-report.json fleet-soak-report-1worker.json
}

# The fleet-serving benchmark's own smoke mode (~35 s): builds bench/e2e
# from source into .bench_build/e2e and exits non-zero when a correctness
# gate or a trace check fails. The JSON result is the CI artifact.
run_e2e_smoke() {
  echo "=== job: e2e smoke (fleet-serving benchmark gates) ==="
  python3 bench/e2e/run.py --smoke --out e2e-smoke-report.json
}

if [[ $# -eq 0 ]]; then
  set -- plain sanitize tsan analyze perf soak-smoke fleet-smoke e2e-smoke
fi

for job in "$@"; do
  case "$job" in
    plain) run_plain ;;
    sanitize) run_sanitize ;;
    tsan) run_tsan ;;
    analyze) run_analyze ;;
    rt-lint) run_rt_lint ;;
    perf) run_perf ;;
    soak-smoke) run_soak_smoke ;;
    fleet-smoke) run_fleet_smoke ;;
    e2e-smoke) run_e2e_smoke ;;
    *)
      echo "unknown job: $job" \
        "(expected plain|sanitize|tsan|analyze|rt-lint|perf|soak-smoke|" \
        "fleet-smoke|e2e-smoke)" >&2
      exit 2
      ;;
  esac
done

echo "=== CI pipeline passed ==="
