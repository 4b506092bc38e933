#!/usr/bin/env python3
"""Build and run the fleet-serving benchmark (see README.md).

    python3 bench/e2e/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--out F.json]
    python3 bench/e2e/run.py --smoke [--binary PATH]

Builds bench/e2e (and the library from source) into .bench_build/e2e, runs
one workload (or all three), forwards every `workload metric value unit`
line, and prints as its last line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 1 the metrics are the
per-layer ones and the spans are written next to the result as Chrome
trace-event JSON. Exits non-zero when a build fails or a correctness gate
fails. --smoke runs every workload small and traced, and also checks the
trace files. Python standard library only.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ["steady_1relay", "fine_block_1relay", "mesh4_churn"]
RUN_TIMEOUT_S = 170  # a run must end within 180 s

# One span name per layer the per-layer metrics are measured from.
REQUIRED_SPANS = [
    "setup.synthesize", "sim.prepare_streams", "rf.relay_link",
    "acoustics.build_path", "audio.generate", "sim.fleet.construct",
    "sim.fleet.warmup", "sim.fleet.admit", "sim.fleet.run_blocks",
    "phase.closed", "phase.paced", "phase.one_lane", "ledger.record",
    "core.mute_device.tick", "core.link_monitor.process",
    "core.relay_select.push", "core.relay_select.round", "core.lanc.tick",
    "core.shadow_filter.observe", "adaptive.sysid.identify",
    "dsp.fir_filter.plant",
]


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure (once) and build; returns the binary path or None."""
    if shutil.which("cmake") is None:
        log("cmake not found")
        return None
    build_dir.mkdir(parents=True, exist_ok=True)
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    cmd = ["cmake", "--build", str(build_dir), "--target", "mute_e2e",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        return None
    return build_dir / "mute_e2e"


def check_trace(path):
    """Problems with a Chrome trace file: unparsable, a span whose parent
    was not recorded, negative self time, or a layer with no span."""
    try:
        events = json.loads(Path(path).read_text())["traceEvents"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path}: {exc}"]
    problems = []
    spans = {e["args"]["id"]: e for e in events}
    children = {}
    for e in events:
        parent = e["args"]["parent"]
        if parent and parent not in spans:
            problems.append(f"span {e['args']['id']} ({e['name']}) has "
                            f"unrecorded parent {parent}")
        children.setdefault(parent, []).append(e)
    for sid, e in spans.items():
        start, end = e["ts"], e["ts"] + e["dur"]
        covered, reach = 0.0, start
        for c in sorted(children.get(sid, []), key=lambda c: c["ts"]):
            lo, hi = max(c["ts"], reach), min(c["ts"] + c["dur"], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        # ts and dur are printed to 1 ns; allow that rounding.
        if e["dur"] - covered < -0.01:
            problems.append(f"span {sid} ({e['name']}) has negative self time")
    names = {e["name"] for e in events}
    problems += [f"no '{n}' span" for n in REQUIRED_SPANS if n not in names]
    return problems


def run_workload(binary, out_dir, workload, args, trace):
    stem = f"{workload}-seed{args.seed}-trace{trace}"
    result_path = out_dir / f"result-{stem}.json"
    # mute_e2e writes a traced run's spans beside its result.
    trace_path = result_path.with_suffix(".trace.json")
    result_path.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace),
           "--out", str(result_path)]
    if args.smoke:
        cmd.append("--smoke")
    sys.stdout.flush()
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload}: timed out after {RUN_TIMEOUT_S} s")
        return None
    if proc.returncode not in (0, 1) or not result_path.exists():
        log(f"{workload}: exited with {proc.returncode}")
        return None
    result = json.loads(result_path.read_text())
    if args.smoke:
        for problem in check_trace(trace_path):
            log(f"{workload}: trace: {problem}")
            result["correct"] = False
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="one workload (default: all three)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="4 tenants, 2 closed segments and 2 s paced, "
                         "traced, with trace checks")
    ap.add_argument("--out", help="also write the full results here")
    ap.add_argument("--binary", help="use this mute_e2e instead of building")
    args = ap.parse_args()

    if args.binary:
        binary = Path(args.binary).resolve()
    else:
        binary = build(ROOT / ".bench_build" / "e2e")
        if binary is None:
            log("build failed")
            return 2
    out_dir = binary.parent / "results"
    out_dir.mkdir(parents=True, exist_ok=True)

    trace = 1 if args.smoke else args.trace
    workloads = [args.workload] if args.workload else WORKLOADS
    results = {}
    for w in workloads:
        result = run_workload(binary, out_dir, w, args, trace)
        if result is None:
            return 2
        results[w] = result

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "trace": trace,
             "results": results}, indent=1) + "\n")

    if len(results) == 1:
        metrics = next(iter(results.values()))["metrics"]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
