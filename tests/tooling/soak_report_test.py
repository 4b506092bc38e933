#!/usr/bin/env python3
"""The soak CLI's --json reports are one JSON schema a strict parser reads.

Runs `soak mesh` and `soak fleet` small, loads each report with json.load
(refusing the bare Infinity/NaN tokens Python would otherwise accept),
and checks the top-level keys both modes share, that every unit carries
the shared unit keys, and that units come in id order.

Usage: soak_report_test.py <path to the soak binary>
Run via ctest (soak_reports_are_strict_json); exits non-zero on any failure.
"""

import json
import os
import subprocess
import sys
import tempfile

SHARED_TOP = {"mode", "config", "passed", "never_louder", "gap_bounded",
              "allocation_clean", "allocation_tracked", "judged", "failed",
              "units"}
SHARED_UNIT = {"id", "passed", "worst_excess_db", "worst_window_start_s",
               "served_s", "handoffs", "holds"}
RUNS = {
    "mesh": ["--relays", "2", "--duration", "7", "--seeds", "2"],
    "fleet": ["--devices", "8", "--sim-seconds", "2"],
}


def refuse(token):
    raise ValueError(f"bare {token} in a soak report")


def main():
    soak = sys.argv[1]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for mode, args in RUNS.items():
            before = len(failures)
            path = os.path.join(tmp, f"{mode}.json")
            proc = subprocess.run([soak, mode, *args, "--json", path],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                failures.append(f"{mode}: exit {proc.returncode}\n"
                                f"{proc.stdout}{proc.stderr}")
                continue
            try:
                with open(path) as f:
                    report = json.load(f, parse_constant=refuse)
            except ValueError as e:
                failures.append(f"{mode}: {e}")
                continue
            missing = SHARED_TOP - report.keys()
            if missing:
                failures.append(f"{mode}: missing top-level {sorted(missing)}")
            if report.get("mode") != mode:
                failures.append(f"{mode}: mode reads {report.get('mode')!r}")
            units = report.get("units", [])
            if not units or report.get("judged") != len(units):
                failures.append(f"{mode}: judged {report.get('judged')} but "
                                f"{len(units)} units listed")
            for u in units:
                if SHARED_UNIT - u.keys():
                    failures.append(f"{mode}: unit {u.get('id')} lacks "
                                    f"{sorted(SHARED_UNIT - u.keys())}")
            ids = [u.get("id") for u in units]
            if ids != sorted(ids):
                failures.append(f"{mode}: units out of id order: {ids}")
            print(f"[{'ok' if len(failures) == before else 'FAIL'}] {mode}: "
                  f"{len(units)} units")
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
