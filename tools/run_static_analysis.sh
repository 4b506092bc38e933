#!/usr/bin/env bash
# Static-analysis gate for the MUTE tree.
#
# Primary mode: clang-tidy over the compilation database produced by the
# `tidy` CMake preset, with .clang-tidy's WarningsAsErrors policy — any
# finding fails the run. Coverage is every first-party TU in the database:
# src/, bench/, examples/, and tests/ (the latter three under relaxed
# per-directory .clang-tidy profiles — nearest config wins).
#
# Fallback mode (toolchains without clang-tidy, e.g. the GCC-only CI
# image): a strict re-compile of every translation unit in the database
# with -fsyntax-only and an extended warning set promoted to errors
# (tools/strict_syntax_check.py).
#
# Third leg, both toolchains: tools/rt_lint.py — the annotation-driven
# real-time-safety gate (DESIGN.md §11). It walks the call graph from the
# MUTE_RT_SAFE roots and fails on any reachable allocation / lock / throw /
# banned API, writing a machine-readable report to
# $BUILD_DIR/rt_lint_report.json.
#
# All modes exit non-zero on any finding, so
# `tools/run_static_analysis.sh && ...` is a valid gate either way.
#
# Usage: tools/run_static_analysis.sh [--build-dir DIR] [--skip-rt-lint]
#        tools/run_static_analysis.sh --rt-lint-only   (the ci.sh rt-lint job)

set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="$ROOT/build-tidy"
RUN_TIDY=1
RUN_RT_LINT=1

while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir)
      BUILD_DIR="$2"
      shift 2
      ;;
    --rt-lint-only)
      RUN_TIDY=0
      shift
      ;;
    --skip-rt-lint)
      RUN_RT_LINT=0
      shift
      ;;
    *)
      echo "unknown argument: $1" >&2
      exit 2
      ;;
  esac
done

# Configure on every run: an existing database still lists a source file
# that has since been deleted, and the syntax check then fails on it.
echo "== configuring tidy preset (compilation database) =="
cmake --preset tidy -S "$ROOT" -B "$BUILD_DIR"

if [[ "$RUN_TIDY" == 1 ]]; then
  if command -v clang-tidy > /dev/null 2>&1; then
    echo "== clang-tidy over $BUILD_DIR/compile_commands.json =="
    mapfile -t FILES < <(python3 - "$BUILD_DIR/compile_commands.json" <<'EOF'
import json
import sys

with open(sys.argv[1]) as fh:
    db = json.load(fh)
# Every first-party TU: src/ plus the bench/examples/tests trees (their
# relaxed per-directory .clang-tidy profiles apply automatically). Vendored
# third-party sources (_deps) stay out.
WANT = ("/src/", "/bench/", "/examples/", "/tests/")
files = sorted({e["file"] for e in db
                if any(d in e["file"] for d in WANT)
                and "_deps" not in e["file"]})
print("\n".join(files))
EOF
)
    clang-tidy -p "$BUILD_DIR" --quiet "${FILES[@]}"
    echo "clang-tidy: no findings"
  else
    echo "== clang-tidy not found; strict GCC -fsyntax-only fallback =="
    python3 "$ROOT/tools/strict_syntax_check.py" \
      "$BUILD_DIR/compile_commands.json"
  fi
fi

if [[ "$RUN_RT_LINT" == 1 ]]; then
  echo "== rt-lint (static RT-safety gate, DESIGN.md §11) =="
  python3 "$ROOT/tools/rt_lint.py" \
    --report "$BUILD_DIR/rt_lint_report.json"
fi

echo "static analysis passed"
