#!/usr/bin/env python3
"""Fail if src/ (or tools/) contains a known source of nondeterminism.

The simulator's contract is bit-identical output for a given seed at any
--jobs count (tests/exp_test.cpp pins it; the gfc-analyze JSON is compared
byte-for-byte in CI). Four classes of code break that contract quietly:

  * wall-clock reads: time(...), std::chrono::system_clock
  * the unseeded C PRNG: rand(), srand(time(...)) idioms
  * hash-ordered containers iterated in output paths:
    std::unordered_map / std::unordered_set (use std::map / std::set; the
    hot paths here are find/insert-bound, where the rb-tree is fine)

Run: tools/lint_determinism.py [root]   (default root: repo root)
Exit status: 0 clean, 1 findings.
"""

import pathlib
import re
import sys

# (regex, why it is banned). Word boundaries keep tx_time(, format_time(,
# grand(... etc. out of the match set.
RULES = [
    (re.compile(r"(?<![\w:.])time\s*\("), "wall-clock time() read"),
    (re.compile(r"system_clock"), "std::chrono::system_clock wall-clock read"),
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "unseeded C PRNG (use sim::Rng)"),
    (re.compile(r"unordered_(map|set)"),
     "hash-ordered container (use std::map / std::set)"),
    (re.compile(r"this_thread::get_id"),
     "thread identity read (worker identity must never reach results)"),
]

# Extra rules for the analyzer only: src/analyze promises byte-identical
# reports (golden JSON cmp in CI, and the incremental analyzer's whole
# correctness argument is byte-equality with from-scratch analysis).
# Iteration order must therefore never depend on addresses: a map or set
# keyed on pointers iterates in allocation order, which varies run to run
# under ASLR.
ANALYZE_RULES = [
    (re.compile(r"\b(?:map|set)\s*<[^<>,]*\*\s*[,>]"),
     "pointer-keyed map/set in src/analyze (address-ordered iteration)"),
    (re.compile(r"\bsort\([^;]*\[\]\([^)]*\*\s*\w+,"),
     "sorting by pointer comparator in src/analyze (address order)"),
]

SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}


def lint_file(path: pathlib.Path, in_analyze: bool = False) -> list[str]:
    rules = list(RULES)
    if in_analyze:
        rules += ANALYZE_RULES
    findings = []
    for lineno, line in enumerate(
            path.read_text(encoding="utf-8").splitlines(), start=1):
        code = line.split("//", 1)[0]  # comments may name the banned APIs
        for rule, why in rules:
            if rule.search(code):
                findings.append(f"{path}:{lineno}: {why}\n    {line.strip()}")
    return findings


def main() -> int:
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1
                        else pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    if not src.is_dir():
        print(f"lint_determinism: no src/ under {root}", file=sys.stderr)
        return 2
    findings = []
    analyze = src / "analyze"
    for path in sorted(src.rglob("*")):
        if path.suffix in SUFFIXES:
            findings.extend(lint_file(path, path.is_relative_to(analyze)))
    # tools/ feeds the golden artifacts (gfc-analyze JSON above all), so it
    # obeys the same base rules as src/.
    tools = root / "tools"
    if tools.is_dir():
        for path in sorted(tools.rglob("*")):
            if path.suffix in SUFFIXES:
                findings.extend(lint_file(path))
    if findings:
        print("determinism lint: %d finding(s)" % len(findings))
        for f in findings:
            print(f)
        return 1
    print("determinism lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
