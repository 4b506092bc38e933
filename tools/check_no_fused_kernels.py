#!/usr/bin/env python3
"""Fail when any clone of a dsp kernel contains a fused multiply-add.

The kernels in src/dsp/kernels.cpp are compiled once per target clone
(default, avx2, avx512f) and promise the same bits from every clone
(DESIGN.md §10.2). A fused multiply-add rounds once where the reference
rounds twice, so a clone that fuses breaks that promise. The bitwise
kernel tests only see the clone the host dispatches; this check reads the
disassembly of every clone.

Usage: check_no_fused_kernels.py <libmute_dsp> <cxx-compiler-id> <cpu>
Exits 0 when clean, 1 on a fused instruction (or when no kernel is
found), and 77 (ctest's skip code) off x86-64 GCC or without objdump.
"""

import re
import shutil
import subprocess
import sys

SKIP = 77
PREFIX = "mute::dsp::kernels::"
# vfmadd, vfmsub, vfnmadd, vfnmsub, vfmaddsub, vfmsubadd, any width.
FUSED = re.compile(r"\bvfn?m(?:add|sub)\w*")
HEADER = re.compile(r"^[0-9a-f]+ <(.+)>:$")


def main(argv):
    if len(argv) != 4:
        print("usage: check_no_fused_kernels.py <libmute_dsp> "
              "<cxx-compiler-id> <cpu>", file=sys.stderr)
        return 2
    lib, compiler, cpu = argv[1:]
    if compiler != "GNU" or cpu not in ("x86_64", "AMD64"):
        print(f"skipped: kernel clones are x86-64 GCC only "
              f"(compiler {compiler}, cpu {cpu})")
        return SKIP
    objdump = shutil.which("objdump")
    if objdump is None:
        print("skipped: objdump not found")
        return SKIP
    out = subprocess.run([objdump, "-d", "-C", "--no-show-raw-insn", lib],
                         capture_output=True, text=True, check=True).stdout

    fused = {}
    kernels = set()
    function = None
    for line in out.splitlines():
        header = HEADER.match(line)
        if header:
            function = header.group(1)
            if function.startswith(PREFIX):
                kernels.add(function)
            continue
        if function is None or not function.startswith(PREFIX):
            continue
        match = FUSED.search(line)
        if match:
            fused.setdefault(function, []).append(match.group(0))

    if not kernels:
        print(f"FAIL: no {PREFIX} function in {lib}")
        return 1
    for function, insns in sorted(fused.items()):
        print(f"FAIL: {function}: {len(insns)} fused "
              f"({', '.join(sorted(set(insns)))})")
    if fused:
        return 1
    print(f"ok: {len(kernels)} kernel functions (all clones), none fused")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
