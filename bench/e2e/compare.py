#!/usr/bin/env python3
"""Compare two sides of fleet-serving benchmark results (see README.md).

    python3 bench/e2e/compare.py --a A1.json A2.json ... --b B1.json ...

Each file is a result written by `run.py --out` (one or all workloads). A
side is a set of runs: of one commit (the parent, say) or of one batch of
runs. List both sides in the order they ran, so that A[i] and B[i] form
the i-th pair.

For every (workload, metric) it prints each side's median and quartiles
and B's change against A's median, as a share of A's median and signed so
that a positive share is worse. For end-to-end metrics it applies the
bound in BENCHMARK.json:

  unresolved  a side's interquartile spread, as a share of its median, is
              wider than the bound, unless every run of B beats every run
              of A or the reverse;
  WORSE       B's median is worse than A's by more than the bound;
  ok          otherwise.

It also applies the pair-win rule to the alternating pairs: B claims a
gain on a metric only when it wins at least nine tenths of the pairs (ties
count for neither side) and the medians differ by more than A's
interquartile distance. Exits 1 when any end-to-end metric is WORSE.
Python standard library only.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def load_side(paths):
    """{(workload, metric): [values in run order]}, plus units."""
    values, units = {}, {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        results = doc.get("results", {doc.get("workload"): doc})
        for workload, result in results.items():
            for name, m in result["metrics"].items():
                values.setdefault((workload, name), []).append(m["value"])
                units[(workload, name)] = m["unit"]
    return values, units


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, q2, q3 = statistics.quantiles(v, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--a", nargs="+", required=True, help="side A results")
    ap.add_argument("--b", nargs="+", required=True, help="side B results")
    args = ap.parse_args()

    spec = json.loads(BENCHMARK.read_text())
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    per_layer = {m["name"]: m for m in spec["per_layer"]}
    a, units = load_side(args.a)
    b, _ = load_side(args.b)

    header = (f"{'workload':<18} {'metric':<42} {'A q1/med/q3':>30} "
              f"{'B q1/med/q3':>30} {'change':>8} {'bound':>6} "
              f"{'pairs B won':>11}  verdict")
    print(header)
    print("-" * len(header))
    worse = False
    for key in sorted(set(a) & set(b)):
        workload, name = key
        va, vb = a[key], b[key]
        qa, qb = quartiles(va), quartiles(vb)
        meta = end_to_end.get(name) or per_layer.get(name)
        if meta is None:
            continue  # not a metric of this BENCHMARK.json
        sign = -1.0 if meta.get("better") == "higher" else 1.0
        base = abs(qa[1]) if qa[1] != 0 else 1.0
        change = sign * (qb[1] - qa[1]) / base

        pairs = list(zip(va, vb))
        wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
        ties = sum(1 for x, y in pairs if x == y)
        gain = (pairs and wins >= 0.9 * len(pairs) and
                abs(qb[1] - qa[1]) > qa[2] - qa[0])

        verdict = ""
        bound = end_to_end.get(name, {}).get("bound")
        if bound is not None:
            spread = max((qa[2] - qa[0]) / base,
                         (qb[2] - qb[0]) / (abs(qb[1]) or 1.0))
            separated = (max(va) < min(vb)) or (max(vb) < min(va))
            if spread > bound and not separated:
                verdict = "unresolved"
            elif change > bound:
                verdict, worse = "WORSE", True
            else:
                verdict = "ok"
        if gain and sign * (qb[1] - qa[1]) < 0:
            verdict += " gain"

        def fmt(q):
            return f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"

        label = f"{name} [{units[key]}]"
        bound_text = "" if bound is None else f"{bound:.2f}"
        won = f"{wins}/{len(pairs)}" + (f" ({ties} tie)" if ties else "")
        print(f"{workload:<18} {label:<42} {fmt(qa):>30} {fmt(qb):>30} "
              f"{change:>+8.2%} {bound_text:>6} {won:>11}  {verdict.strip()}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
