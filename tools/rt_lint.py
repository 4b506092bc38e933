#!/usr/bin/env python3
"""rt-lint: static real-time-safety gate for the per-sample audio path.

Walks the call graph from the declared real-time roots (functions annotated
MUTE_RT_SAFE — see src/common/rt_annotations.hpp) and fails when anything
reachable can allocate, lock, throw, block on I/O, or call a banned API.
This turns the RT contract that RtAllocationGuard enforces dynamically (on
whatever paths the tests happen to exercise) into a whole-call-graph
property checked on every CI run (DESIGN.md §11).

The analyzer is pure Python and needs no compiler front end: a
length-preserving comment/string stripper, a scope-tracking function
extractor, and name-based call resolution. Overloads of one qualified name
merge, and ambiguous member calls traverse only RT-annotated candidates
(the precision limit of a textual call graph; each ambiguity is listed in
the report so it is visible). It exits non-zero on any violation, so
`rt_lint.py && ...` is a valid gate.

Deny-list (construct ids as they appear in reports / the allow-list):

  operator-new      new expressions (any form, including placement)
  malloc-family     malloc / calloc / realloc / aligned_alloc / strdup
  free              free()
  throw             throw expressions
  lock              std::mutex & friends, .lock()/.unlock()/.try_lock()
  blocking-io       iostream objects, printf family, file APIs, sleeps
  string-build      stringstream family, std::to_string
  std-rotate        std::rotate (banned from per-sample code since PR 4;
                    use dsp::RingHistory / FrameHistory)
  container-growth  push_back / emplace* / insert / resize / reserve /
                    assign / append / shrink_to_fit member calls
  rt-unsafe-call    a call to a function annotated MUTE_RT_UNSAFE

Escape hatches, in order of preference:
  1. MUTE_RT_ESCAPE("reason") on the callee — stops traversal there; the
     reason is surfaced in the report.
  2. An allow-list entry (tools/rt_lint_allow.txt) naming the exact
     (function, construct) pair WITH a justification — for constructs
     inside a function that is otherwise on the RT surface (e.g. an
     amortized append into reserve()d capacity). Entries without a
     justification fail the run.

Usage:
  rt_lint.py [--src DIR ...] [--file FILE ...] [--allow FILE]
             [--report FILE] [--no-require-roots] [--strict-allow]
             [--verbose]

Exit codes: 0 clean, 1 violations / missing roots / bad allow-list,
2 usage or environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from collections import deque

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# --------------------------------------------------------------------------
# Deny-list. Patterns run over comment/string-stripped function bodies.
# --------------------------------------------------------------------------

BANNED = [
    ("operator-new", r"\bnew\b"),
    ("malloc-family",
     r"\b(?:malloc|calloc|realloc|aligned_alloc|posix_memalign|strdup)\s*\("),
    ("free", r"\bfree\s*\("),
    ("throw", r"\bthrow\b"),
    ("lock",
     r"\b(?:mutex|recursive_mutex|timed_mutex|lock_guard|unique_lock|"
     r"scoped_lock|shared_lock|condition_variable)\b"
     r"|(?:\.|->)\s*(?:lock|unlock|try_lock)\s*\("),
    ("blocking-io",
     r"\b(?:cout|cerr|clog|printf|fprintf|sprintf|snprintf|puts|fputs|"
     r"fwrite|fread|fopen|fclose|getline|system|sleep_for|sleep_until)\b"
     r"|\b[io]?fstream\b"),
    ("string-build",
     r"\b(?:stringstream|ostringstream|istringstream|to_string)\b"),
    ("std-rotate", r"\brotate\s*\("),
    ("container-growth",
     r"(?:\.|->)\s*(?:push_back|emplace_back|push_front|emplace_front|"
     r"resize|reserve|insert|emplace|assign|append|shrink_to_fit)\s*\("),
]

# Per-sample entry points that MUST exist and carry MUTE_RT_SAFE; the gate
# fails if one goes missing or loses its annotation (drift protection).
# Matched as qualified-name suffixes.
REQUIRED_ROOTS = [
    "mute::core::MuteDevice::tick",
    "mute::core::LancController::tick",
    "mute::core::LancController::observe_error",
    "mute::core::LinkMonitor::process",
    "mute::core::RelaySelector::push",
    "mute::core::GccPhatPlan::run",
    "mute::adaptive::FxlmsEngine::push_reference",
    "mute::adaptive::FxlmsEngine::compute_antinoise",
    "mute::adaptive::FxlmsEngine::adapt",
    "mute::adaptive::FxlmsEngine::step_output",
    "mute::adaptive::MultiFxlmsEngine::push_references",
    "mute::adaptive::MultiFxlmsEngine::compute_antinoise",
    "mute::adaptive::MultiFxlmsEngine::adapt",
    "mute::adaptive::AdaptiveFir::predict",
    "mute::adaptive::AdaptiveFir::update",
    "mute::adaptive::FdFxlmsEngine::process_block",
    "mute::adaptive::FdFxlmsEngine::adapt_block",
    "mute::adaptive::BlockFdaf::step_block",
    "mute::dsp::FirFilter::process",
    "mute::dsp::Biquad::process",
    "mute::dsp::DelayLine::process",
    "mute::dsp::RingHistory::push",
    "mute::dsp::FrameHistory::push",
    "mute::dsp::kernels::dot",
    "mute::dsp::kernels::energy",
    "mute::dsp::kernels::axpy_leaky_norm",
    "mute::dsp::kernels::scaled_accumulate",
    "mute::dsp::kernels::cmul_accumulate",
    "mute::dsp::kernels::cmul_conj_scaled",
    "mute::dsp::kernels::magsq_accumulate",
    "mute::dsp::kernels::magsq_update",
    "mute::dsp::kernels::window_into_complex",
    "mute::rf::FaultInjector::process",
    "mute::core::ShadowFilter::observe",
    "mute::core::ShadowFilter::track",
    "mute::rf::SpectrumPlanner::note_adverse",
    "mute::rf::SpectrumPlanner::note_clean",
    "mute::rf::SpectrumPlanner::plan",
    "mute::sim::FleetRuntime::process_tenant_block",
    "mute::MonotonicArena::allocate",
]

CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "catch", "sizeof", "alignof",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "new", "delete", "throw", "case", "default", "do", "else", "goto",
    "template", "typename", "using", "typedef", "static_assert", "decltype",
    "noexcept", "alignas", "co_return", "co_await", "co_yield", "asm",
    "requires", "operator", "and", "or", "not",
}


# --------------------------------------------------------------------------
# Source model.
# --------------------------------------------------------------------------

class Fn:
    """One function (all overloads of one qualified name merged)."""

    __slots__ = ("qname", "simple", "annotations", "escape_reason",
                 "bodies", "file", "line")

    def __init__(self, qname, simple, file, line):
        self.qname = qname
        self.simple = simple
        self.file = file
        self.line = line
        self.annotations = set()    # subset of {safe, unsafe, escape}
        self.escape_reason = None
        self.bodies = []            # (stripped, file, first_line)


class Model:
    def __init__(self):
        self.fns = {}           # qname -> Fn
        self.by_simple = {}     # simple -> [qname]

    def get(self, qname, simple, file, line):
        fn = self.fns.get(qname)
        if fn is None:
            fn = Fn(qname, simple, file, line)
            self.fns[qname] = fn
            self.by_simple.setdefault(simple, []).append(qname)
        return fn

    def resolve(self, name):
        """Resolve a (possibly qualified) callee name to Fn qnames."""
        name = re.sub(r"\s+", "", name)
        if "::" in name:
            if name.split("::", 1)[0] == "std":
                return []
            if name in self.fns:
                return [name]
            suffix = "::" + name
            return [q for q in self.fns if q.endswith(suffix)]
        return list(self.by_simple.get(name, []))


# --------------------------------------------------------------------------
# Length-preserving stripper + scope-tracking extractor.
# --------------------------------------------------------------------------

def strip_code(text):
    """Blank comments, string/char literal contents, and preprocessor
    lines, preserving length and line structure so offsets map 1:1."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            for k in range(i, j):
                out[k] = " "
            i = j
        elif c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            for k in range(i, j + 2):
                if out[k] != "\n":
                    out[k] = " "
            i = j + 2
        elif c in "\"'":
            q = c
            j = i + 1
            while j < n and text[j] != q:
                j = j + 2 if text[j] == "\\" else j + 1
            for k in range(i + 1, min(j, n)):
                if out[k] != "\n":
                    out[k] = " "
            i = min(j, n - 1) + 1
        elif c == "#" and (i == 0 or text[i - 1] == "\n"):
            # Preprocessor directive, including \-continuations.
            j = i
            while j < n:
                e = text.find("\n", j)
                e = n if e < 0 else e
                if text[e - 1] == "\\" if e > 0 else False:
                    j = e + 1
                    continue
                j = e
                break
            for k in range(i, j):
                if out[k] != "\n":
                    out[k] = " "
            i = j
        else:
            i += 1
    return "".join(out)


def match_brace(text, open_pos):
    depth = 0
    for i in range(open_pos, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


ANNOT_RE = re.compile(r"\bMUTE_RT_(SAFE|UNSAFE|ESCAPE)\b")
NS_RE = re.compile(r"\bnamespace\s+([A-Za-z_][\w:]*)?\s*$")
CLASS_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:\[\[[^\]]*\]\]\s*)?(?:alignas\s*\([^)]*\)\s*)?"
    r"([A-Za-z_]\w*)\s*(?:final\s*)?(?::[^{;()]*)?$")
NAME_BEFORE_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*~?[A-Za-z_]\w*)\s*$")
OPERATOR_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*operator\s*"
    r"(?:[-+*/%^&|~!=<>]+|\(\s*\)|\[\s*\]))\s*$")


def head_annotations(stripped_head, orig_head):
    ann, reason = set(), None
    for m in ANNOT_RE.finditer(stripped_head):
        kind = m.group(1)
        if kind == "SAFE":
            ann.add("safe")
        elif kind == "UNSAFE":
            ann.add("unsafe")
        else:
            ann.add("escape")
            rm = re.search(r'MUTE_RT_ESCAPE\s*\(\s*"((?:[^"\\]|\\.)*)"',
                           orig_head[m.start():])
            if rm:
                reason = rm.group(1)
    return ann, reason


def clean_head(head):
    """Remove annotations/attributes/template prefixes so declarator
    extraction sees only the declaration proper."""
    h = re.sub(r"MUTE_RT_ESCAPE\s*\([^)]*\)", " ", head)
    h = re.sub(r"\bMUTE_RT_SAFE\b|\bMUTE_RT_UNSAFE\b", " ", h)
    h = re.sub(r"\[\[[^\]]*\]\]", " ", h)
    h = re.sub(r"\btemplate\s*<[^<>]*(?:<[^<>]*>[^<>]*)*>", " ", h)
    return h


def paren_groups(text):
    """Top-level (start, end) parenthesis groups."""
    groups, depth, start = [], 0, -1
    for i, c in enumerate(text):
        if c == "(":
            if depth == 0:
                start = i
            depth += 1
        elif c == ")" and depth > 0:
            depth -= 1
            if depth == 0:
                groups.append((start, i))
    return groups


def declarator_name(head):
    """Extract the function declarator name from a statement head, or None
    when the head is not a function declaration/definition."""
    h = clean_head(head)
    groups = paren_groups(h)
    if not groups:
        return None
    # A top-level '=' before the first group means an initializer, not a
    # declaration ('auto f = ...', 'static const x = foo(...)').
    before_first = h[:groups[0][0]]
    if re.search(r"(?<![<>=!+\-*/%&|^])=(?!=)", before_first):
        return None
    for gi, (s, _e) in enumerate(groups):
        pre = h[:s]
        om = OPERATOR_RE.search(pre)
        if om:
            return re.sub(r"\s+", "", om.group(1))
        nm = NAME_BEFORE_RE.search(pre)
        if not nm:
            continue
        name = re.sub(r"\s+", "", nm.group(1))
        last = name.rsplit("::", 1)[-1]
        if last in CONTROL_KEYWORDS:
            if last == "operator" and gi + 1 < len(groups):
                return name + "()"   # operator() — params are next group
            continue
        return name
    return None


def scan_source(model, path, text):
    stripped = strip_code(text)
    scope = []   # (kind, name) with kind in {ns, cls, block}
    i, head_start, n = 0, 0, len(stripped)

    def qualify(name):
        parts = [nm for kind, nm in scope if kind in ("ns", "cls") and nm]
        return "::".join(parts + [name]) if parts else name

    def record(name, ann, reason, body, body_line, line):
        qname = qualify(name)
        simple = name.rsplit("::", 1)[-1]
        fn = model.get(qname, simple, os.path.relpath(path, REPO), line)
        fn.annotations |= ann
        if reason and not fn.escape_reason:
            fn.escape_reason = reason
        if body is not None:
            fn.bodies.append((body, os.path.relpath(path, REPO), body_line))

    while i < n:
        c = stripped[i]
        if c == ";":
            head = stripped[head_start:i]
            if ANNOT_RE.search(head):
                name = declarator_name(head)
                if name:
                    ann, reason = head_annotations(head, text[head_start:i])
                    line = text.count("\n", 0, head_start) + 1
                    record(name, ann, reason, None, 0, line)
            head_start = i + 1
            i += 1
        elif c == "}":
            if scope:
                scope.pop()
            head_start = i + 1
            i += 1
        elif c == "{":
            head = stripped[head_start:i]
            h = head.strip()
            nsm = NS_RE.search(h)
            clm = CLASS_RE.search(h) if not nsm else None
            name = None
            if not nsm and not clm and "enum" not in h.split():
                name = declarator_name(head)
            if nsm:
                scope.append(("ns", nsm.group(1) or ""))
                head_start = i + 1
                i += 1
            elif clm:
                scope.append(("cls", clm.group(1)))
                head_start = i + 1
                i += 1
            elif name:
                end = match_brace(stripped, i)
                ann, reason = head_annotations(head, text[head_start:i])
                line = text.count("\n", 0, head_start) + 1
                body_line = text.count("\n", 0, i) + 1
                record(name, ann, reason, stripped[i + 1:end],
                       body_line, line)
                head_start = end + 1
                i = end + 1
            else:
                scope.append(("block", ""))
                head_start = i + 1
                i += 1
        else:
            i += 1


CALL_RE = re.compile(r"(?<![.\w>:])((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)\s*\(")
MEMBER_RE = re.compile(r"(?:\.|->)\s*([A-Za-z_]\w*)\s*\(")

# Member names the deny-list already bans textually (container-growth).
# Resolving them to in-repo functions of the same name (RingHistory::assign
# vs std::vector::assign) would add false call-graph edges; the textual hit
# is the enforcement for these.
DENY_MEMBER_NAMES = {
    "push_back", "emplace_back", "push_front", "emplace_front", "resize",
    "reserve", "insert", "emplace", "assign", "append", "shrink_to_fit",
    "lock", "unlock", "try_lock", "rotate",
}


def body_calls(body):
    """(plain_or_qualified, is_member) callee names found in a body."""
    calls = set()
    for m in CALL_RE.finditer(body):
        name = re.sub(r"\s+", "", m.group(1))
        last = name.rsplit("::", 1)[-1]
        if last in CONTROL_KEYWORDS or last.startswith("MUTE_"):
            continue
        calls.add((name, False))
    for m in MEMBER_RE.finditer(body):
        name = m.group(1)
        if name not in CONTROL_KEYWORDS and name not in DENY_MEMBER_NAMES:
            calls.add((name, True))
    return calls


def build_model(src_dirs, extra_files):
    model = Model()
    files = list(extra_files)
    for d in src_dirs:
        for root, _dirs, names in os.walk(d):
            for nm in sorted(names):
                if nm.endswith((".hpp", ".cpp", ".h", ".cc")):
                    files.append(os.path.join(root, nm))
    for path in files:
        with open(path, encoding="utf-8", errors="replace") as fh:
            scan_source(model, path, fh.read())
    return model


# --------------------------------------------------------------------------
# Allow-list.
# --------------------------------------------------------------------------

def load_allowlist(path):
    """Entries: (qname-or-suffix, construct, justification). Returns
    (entries, errors)."""
    entries, errors = [], []
    if not path or not os.path.exists(path):
        return entries, errors
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = [p.strip() for p in line.split("|")]
            if len(parts) != 3 or not all(parts):
                errors.append(
                    f"{path}:{lineno}: allow-list entry needs "
                    f"'function | construct | justification': {line!r}")
                continue
            entries.append({"function": parts[0], "construct": parts[1],
                            "justification": parts[2], "used": False,
                            "line": lineno})
    return entries, errors


def allowed(entries, qname, construct):
    for e in entries:
        if e["construct"] != construct:
            continue
        f = e["function"]
        if qname == f or qname.endswith("::" + f):
            e["used"] = True
            return True
    return False


# --------------------------------------------------------------------------
# Traversal.
# --------------------------------------------------------------------------

def traverse(model, allow_entries, verbose=False):
    roots = sorted(q for q, fn in model.fns.items()
                   if "safe" in fn.annotations)
    violations, escapes, ambiguous = [], [], []
    seen = set(roots)
    work = deque(roots)
    order = []
    reached_via = {}    # qname -> first caller that enqueued it

    def scan_bodies(fn):
        for body, file, line0 in fn.bodies:
            for construct, pattern in BANNED:
                for m in re.finditer(pattern, body):
                    if allowed(allow_entries, fn.qname, construct):
                        continue
                    line = line0 + body.count("\n", 0, m.start())
                    snippet = body[max(0, m.start() - 20):m.end() + 20]
                    violations.append({
                        "function": fn.qname, "construct": construct,
                        "file": file, "line": line,
                        "detail": " ".join(snippet.split()),
                    })

    while work:
        qname = work.popleft()
        fn = model.fns[qname]
        order.append(qname)
        if "escape" in fn.annotations:
            escapes.append({"function": qname,
                            "reason": fn.escape_reason or "(no reason)"})
            continue
        if "unsafe" in fn.annotations:
            violations.append({
                "function": qname, "construct": "rt-unsafe-call",
                "file": fn.file, "line": fn.line,
                "detail": "MUTE_RT_UNSAFE function reachable from RT roots",
            })
            continue

        scan_bodies(fn)
        calls = set()
        for body, _file, _line in fn.bodies:
            calls |= body_calls(body)

        for name, _is_member in sorted(calls):
            targets = model.resolve(name)
            if not targets:
                continue
            if len(targets) > 1:
                annotated = [t for t in targets
                             if model.fns[t].annotations]
                if annotated != targets:
                    skipped = sorted(set(targets) - set(annotated))
                    ambiguous.append({
                        "caller": qname, "callee": name,
                        "candidates": len(targets),
                        "skipped": skipped,
                    })
                targets = annotated if annotated else targets[:0] or targets
                if not annotated:
                    # No annotation anywhere: traverse the whole union —
                    # over-approximate rather than silently skip.
                    targets = model.resolve(name)
            for t in targets:
                if t not in seen:
                    seen.add(t)
                    reached_via[t] = qname
                    work.append(t)
        if verbose:
            print(f"  walked {qname}")

    return roots, order, violations, escapes, ambiguous, reached_via


# --------------------------------------------------------------------------
# Driver.
# --------------------------------------------------------------------------

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", action="append", default=[],
                    help="source dir to scan (default: <repo>/src)")
    ap.add_argument("--file", action="append", default=[],
                    help="additional individual source file to scan")
    ap.add_argument("--allow",
                    default=os.path.join(REPO, "tools", "rt_lint_allow.txt"),
                    help="allow-list file ('' disables)")
    ap.add_argument("--report", default="", help="write JSON report here")
    ap.add_argument("--no-require-roots", action="store_true",
                    help="skip the REQUIRED_ROOTS presence check "
                         "(fixture/self-test runs)")
    ap.add_argument("--strict-allow", action="store_true",
                    help="fail on unused allow-list entries")
    ap.add_argument("--verbose", action="store_true")
    args = ap.parse_args()

    src_dirs = args.src or [os.path.join(REPO, "src")]
    for d in src_dirs:
        if not os.path.isdir(d):
            print(f"rt-lint: source dir not found: {d}", file=sys.stderr)
            return 2

    model = build_model(src_dirs, args.file)

    allow_entries, allow_errors = load_allowlist(args.allow)

    missing_roots = []
    if not args.no_require_roots:
        for req in REQUIRED_ROOTS:
            hits = [q for q in model.fns
                    if q == req or q.endswith("::" + req)]
            if not hits:
                missing_roots.append({"root": req, "why": "not found"})
            elif not any("safe" in model.fns[q].annotations for q in hits):
                missing_roots.append({"root": req,
                                      "why": "not annotated MUTE_RT_SAFE"})

    roots, order, violations, escapes, ambiguous, reached_via = traverse(
        model, allow_entries, verbose=args.verbose)
    for v in violations:
        chain, hop = [], v["function"]
        while hop in reached_via and len(chain) < 16:
            hop = reached_via[hop]
            chain.append(hop)
        v["reached_via"] = chain

    unused_allow = [e for e in allow_entries if not e["used"]]
    report = {
        "functions_indexed": len(model.fns),
        "roots": roots,
        "reachable_count": len(order),
        "reachable": order,
        "violations": violations,
        "escapes": escapes,
        "ambiguous_calls": ambiguous,
        "missing_roots": missing_roots,
        "allowlist": {
            "file": args.allow,
            "entries": len(allow_entries),
            "unused": [e["function"] + "|" + e["construct"]
                       for e in unused_allow],
            "errors": allow_errors,
        },
    }
    if args.report:
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2)

    print(f"rt-lint: {len(model.fns)} functions indexed, "
          f"{len(roots)} RT roots, {len(order)} reachable, "
          f"{len(escapes)} escapes, {len(violations)} violations")
    for e in escapes:
        if args.verbose:
            print(f"  escape {e['function']}: {e['reason']}")
    for v in violations:
        print(f"  VIOLATION {v['file']}:{v['line']}: {v['function']}: "
              f"{v['construct']}: {v['detail']}")
        if v.get("reached_via"):
            print(f"    reached via: {' <- '.join(v['reached_via'])}")
    for m in missing_roots:
        print(f"  MISSING ROOT {m['root']}: {m['why']}")
    for err in allow_errors:
        print(f"  ALLOW-LIST ERROR {err}")
    if unused_allow:
        level = "ERROR" if args.strict_allow else "warning"
        for e in unused_allow:
            print(f"  allow-list {level}: unused entry "
                  f"{e['function']}|{e['construct']}")

    failed = bool(violations or missing_roots or allow_errors or
                  (args.strict_allow and unused_allow))
    if failed:
        print("rt-lint: FAIL")
        return 1
    print("rt-lint: per-sample surface is statically "
          "allocation/lock/throw-free")
    return 0


if __name__ == "__main__":
    sys.exit(main())
