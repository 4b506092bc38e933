#!/usr/bin/env python3
"""Perf-regression gate over bench/micro_dsp JSON output.

Compares a fresh `micro_dsp --json out.json` run against the committed
baseline (BENCH_baseline.json at the repo root) and fails when any PINNED
benchmark regressed by more than the threshold (default 1.5x).

Raw nanoseconds are meaningless across machines, so the gate never compares
them. Every benchmark time is first divided by the same run's
BM_Calibration time (a deliberately scalar, latency-bound naive dot that
tracks host FP speed but not SIMD width); only those dimensionless ratios
are compared between baseline and current. A uniformly slower CI runner
cancels out; a genuinely slower kernel does not.

Usage:
  bench/micro_dsp --json current.json
  tools/bench_gate.py current.json              # gate against baseline
  tools/bench_gate.py current.json --update     # rewrite the baseline
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_baseline.json"
CALIBRATION = "BM_Calibration"

# Benchmarks the gate enforces. Everything else in the JSON is informational
# (reported, never fatal) — sim-level benches are too workload-sensitive to
# pin, the kernel and per-sample-cycle benches are the hot-path contract.
PINNED = [
    "BM_KernelDot/1024",
    "BM_KernelEnergy/1024",
    "BM_KernelAxpyLeakyNorm/1024",
    "BM_KernelScaledAccumulate/1024",
    "BM_Fft/128",
    "BM_Fft/32768",
    "BM_FirFilterPerSample/1024",
    "BM_FirFilterPerSample/2048",
    "BM_FxlmsCycle/1024",
    "BM_LancTick/192",
    "BM_AdaptiveFirStep/1024",
    "BM_ShadowObserve/704",
    "BM_LinkMonitor",
    "BM_FmModDemod",
    "BM_Resample16kTo256k",
    "BM_FleetThroughput/8",
    "BM_DeviceTick",
    "BM_RelaySelectRound/1",
    "BM_RelaySelectRound/4",
]


def load_times(path: Path) -> dict[str, float]:
    """Map benchmark name -> cpu_time (ns) from a google-benchmark JSON."""
    with path.open() as fh:
        doc = json.load(fh)
    times: dict[str, float] = {}
    for bench in doc.get("benchmarks", []):
        if bench.get("run_type") == "aggregate":
            continue  # keep raw runs; aggregates would double-count
        name = bench["name"]
        cpu = float(bench["cpu_time"])
        # Repeated runs: keep the minimum (least-noise estimate).
        times[name] = min(times.get(name, cpu), cpu)
    return times


def ratios(times: dict[str, float], label: str) -> dict[str, float]:
    cal = times.get(CALIBRATION)
    if not cal or cal <= 0.0:
        sys.exit(f"bench_gate: {label} JSON has no usable {CALIBRATION} "
                 "entry; run micro_dsp without a filter that excludes it")
    return {name: t / cal for name, t in times.items() if name != CALIBRATION}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", type=Path,
                    help="JSON produced by `micro_dsp --json <file>`")
    ap.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    ap.add_argument("--threshold", type=float, default=1.5,
                    help="fail when current/baseline ratio exceeds this")
    ap.add_argument("--update", action="store_true",
                    help="overwrite the baseline with the current JSON")
    args = ap.parse_args()

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"bench_gate: baseline updated from {args.current}")
        return 0

    if not args.baseline.exists():
        sys.exit(f"bench_gate: baseline {args.baseline} missing; "
                 "create it with --update")

    base = ratios(load_times(args.baseline), "baseline")
    curr = ratios(load_times(args.current), "current")

    failures: list[str] = []
    print(f"{'benchmark':<34} {'base':>9} {'curr':>9} {'x':>6}  status")
    for name in PINNED:
        if name not in base:
            failures.append(f"{name}: missing from baseline (re-run --update)")
            continue
        if name not in curr:
            failures.append(f"{name}: missing from current run")
            continue
        rel = curr[name] / base[name]
        status = "ok" if rel <= args.threshold else "REGRESSED"
        print(f"{name:<34} {base[name]:>9.3f} {curr[name]:>9.3f} "
              f"{rel:>5.2f}x  {status}")
        if rel > args.threshold:
            failures.append(
                f"{name}: {rel:.2f}x over baseline "
                f"(limit {args.threshold:.2f}x)")
    for name in sorted(set(base) & set(curr) - set(PINNED)):
        rel = curr[name] / base[name]
        print(f"{name:<34} {base[name]:>9.3f} {curr[name]:>9.3f} "
              f"{rel:>5.2f}x  info")

    if failures:
        print("\nbench_gate: FAIL")
        for f in failures:
            print(f"  - {f}")
        return 1
    print("\nbench_gate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
