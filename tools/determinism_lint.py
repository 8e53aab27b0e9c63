#!/usr/bin/env python3
"""Determinism lint for the speakup simulation sources.

The repo's core guarantee is that every ExperimentResult fingerprint is
bit-identical across --jobs counts, shard splits, dispatch workers, and
engines. This lint statically bans the patterns that historically break
that promise:

  wall-clock   std::random_device / system_clock / steady_clock /
               std::rand / srand / time(...) anywhere under src/ --
               simulation code must draw time from sim::EventLoop and
               entropy from util::RngStream only.

  unordered-iteration
               range-for over a member that is declared anywhere in src/
               as std::unordered_map / std::unordered_set. Iteration
               order is libstdc++-specific and (for pointer keys)
               ASLR-dependent; results that feed fingerprints, CSVs, or
               payoff matrices must never depend on it.

  raw-engine   a <random> engine (mt19937, mt19937_64, minstd_rand*,
               ranlux*, knuth_b, default_random_engine) named anywhere
               under src/ but src/util/rng.hpp. Every stream goes through
               util::RngStream's seeding and its compact engine.

  hot-path-alloc
               raw `new` (placement ::new is fine), std::make_unique /
               make_shared, and growing container calls (push_back /
               emplace_back / resize / reserve) in files annotated
               `// speakup-lint: hot-path`.
               These files promise an allocation-free steady state;
               every growth site must be amortized (chunk boundary or
               doubling) and explicitly allowlisted.

Known-good sites live in tools/lint_allowlist.txt as
`path|rule|content-substring` lines; the substring is matched against the
offending line's text, so entries survive unrelated line renumbering.
Stale entries (matching nothing) are errors, so rewriting an allowlisted
line cannot leave its dead entry behind.

Exit status: 0 clean, 1 violations or stale entries found, 2 usage/config
error. --self-test seeds one violation per rule into a synthetic file and
exits 0 only if the scanner flags all of them and reports a seeded stale
allowlist entry (the CI negative self-test).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

HOT_PATH_MARKER = "speakup-lint: hot-path"

WALL_CLOCK_PATTERNS = [
    (re.compile(r"std::random_device"), "std::random_device"),
    (re.compile(r"\bsystem_clock\b"), "system_clock"),
    (re.compile(r"\bsteady_clock\b"), "steady_clock"),
    (re.compile(r"std::rand\b|\brand\s*\(\s*\)"), "rand()"),
    (re.compile(r"\bsrand\s*\("), "srand()"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0|&)"), "time()"),
]

ENGINE_RE = re.compile(
    r"\b(?:mt19937(?:_64)?|minstd_rand0?|ranlux\w*|knuth_b|default_random_engine)\b")
ENGINE_HOME = "src/util/rng.hpp"

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*?>\s+(\w+)\s*[;{=]"
)

# Container-growth tells. `insert`/`emplace` are deliberately absent: those
# names collide with domain APIs in the hot-path files (OooTracker::insert)
# and the slab engines grow via the vector calls below.
RAW_NEW_RE = re.compile(r"(?<!:)\bnew\b")
GROWTH_RE = re.compile(r"\.\s*(?:push_back|emplace_back|resize|reserve)\s*\(")
MAKE_RE = re.compile(r"\bmake_(?:unique|shared)(?:_for_overwrite)?\s*<")

STRING_OR_CHAR_RE = re.compile(r'"(?:[^"\\]|\\.)*"|\'(?:[^\'\\]|\\.)*\'')


def strip_noise(line: str) -> str:
    """Drops string/char literals and // comments so prose never trips rules."""
    line = STRING_OR_CHAR_RE.sub('""', line)
    cut = line.find("//")
    return line if cut < 0 else line[:cut]


def collect_unordered_names(files: list[tuple[str, str]]) -> set[str]:
    names: set[str] = set()
    for _, text in files:
        for m in UNORDERED_DECL_RE.finditer(text):
            names.add(m.group(1))
    return names


def scan(files: list[tuple[str, str]]) -> list[tuple[str, int, str, str]]:
    """Returns (path, line_no, rule, line_text) violations, pre-allowlist."""
    unordered = collect_unordered_names(files)
    range_for_res = [
        re.compile(r"for\s*\([^;)]*:\s*(?:this->)?" + re.escape(n) + r"\s*\)")
        for n in sorted(unordered)
    ]
    out: list[tuple[str, int, str, str]] = []
    for path, text in files:
        hot = HOT_PATH_MARKER in text
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = strip_noise(raw)
            if not line.strip():
                continue
            for pat, _ in WALL_CLOCK_PATTERNS:
                if pat.search(line):
                    out.append((path, line_no, "wall-clock", raw.strip()))
                    break
            if path != ENGINE_HOME and ENGINE_RE.search(line):
                out.append((path, line_no, "raw-engine", raw.strip()))
            if any(r.search(line) for r in range_for_res):
                out.append((path, line_no, "unordered-iteration", raw.strip()))
            if hot and (RAW_NEW_RE.search(line) or GROWTH_RE.search(line) or
                        MAKE_RE.search(line)):
                out.append((path, line_no, "hot-path-alloc", raw.strip()))
    return out


def load_allowlist(path: Path) -> list[tuple[str, str, str]]:
    entries: list[tuple[str, str, str]] = []
    if not path.exists():
        return entries
    for raw in path.read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("|", 2)
        if len(parts) != 3:
            print(f"lint_allowlist.txt: malformed entry: {raw}", file=sys.stderr)
            sys.exit(2)
        entries.append((parts[0].strip(), parts[1].strip(), parts[2].strip()))
    return entries


def apply_allowlist(violations, allowlist):
    """Splits violations against the allowlist: returns (reported, stale),
    the violations no entry covers and the entries that cover nothing."""
    used = [False] * len(allowlist)
    reported = []
    for path, line_no, rule, text in violations:
        allowed = False
        for i, (a_path, a_rule, a_sub) in enumerate(allowlist):
            if a_path == path and a_rule == rule and a_sub in text:
                used[i] = True
                allowed = True
        if not allowed:
            reported.append((path, line_no, rule, text))
    stale = [entry for entry, u in zip(allowlist, used) if not u]
    return reported, stale


def run_lint(root: Path) -> int:
    src = root / "src"
    files = [
        (str(p.relative_to(root)), p.read_text())
        for p in sorted(src.rglob("*"))
        if p.suffix in (".cpp", ".hpp", ".h", ".cc")
    ]
    reported, stale = apply_allowlist(
        scan(files), load_allowlist(root / "tools" / "lint_allowlist.txt"))

    for a_path, a_rule, a_sub in stale:
        print(f"stale allowlist entry: {a_path}|{a_rule}|{a_sub}")
    for path, line_no, rule, text in reported:
        print(f"{path}:{line_no}: [{rule}] {text}")
    if reported or stale:
        print(
            f"determinism lint: {len(reported)} violation(s), {len(stale)} stale "
            "allowlist entry(ies). Either make the code deterministic or add a "
            "justified entry to tools/lint_allowlist.txt, and delete entries "
            "that no longer match a line (see docs/correctness.md)."
        )
        return 1
    print(f"determinism lint: clean ({len(files)} files scanned).")
    return 0


SELF_TEST_FILE = (
    "src/fake/seeded.hpp",
    """
#include <unordered_map>
// speakup-lint: hot-path
struct Seeded {
  std::unordered_map<int, int> table_;
  std::mt19937_64 engine_{42};
  void wall() { auto t = std::chrono::system_clock::now(); (void)t; }
  void iterate() { for (auto& [k, v] : table_) { (void)k; (void)v; } }
  void alloc() { auto* p = new int(7); delete p; }
  void grow() { auto q = std::make_unique<int[]>(64); (void)q; }
};
""",
)


def run_self_test() -> int:
    violations = scan([SELF_TEST_FILE])
    rules = {rule for _, _, rule, _ in violations}
    expected = {"wall-clock", "unordered-iteration", "raw-engine", "hot-path-alloc"}
    missing = expected - rules
    if missing:
        print(f"self-test FAILED: rules not detected: {sorted(missing)}")
        return 1
    # The same text in the engine's home file is not a raw-engine finding.
    if any(rule == "raw-engine" for _, _, rule, _ in scan([(ENGINE_HOME, SELF_TEST_FILE[1])])):
        print(f"self-test FAILED: raw-engine flagged in {ENGINE_HOME}")
        return 1
    # Both seeded allocations are flagged: the raw new and the make_unique.
    allocs = [text for _, _, rule, text in violations if rule == "hot-path-alloc"]
    if not any("make_unique" in text for text in allocs):
        print("self-test FAILED: make_unique in a hot-path file not detected")
        return 1
    # Entries covering the seeded allocations, and one left behind by a
    # rewrite of a growth site: the first must silence their lines, the
    # last must be reported stale.
    path = SELF_TEST_FILE[0]
    live = [(path, "hot-path-alloc", "new int(7)"),
            (path, "hot-path-alloc", "make_unique<int[]>(64)")]
    dead = (path, "hot-path-alloc", "pool_.reserve(old_size * 2)")
    reported, stale = apply_allowlist(violations, live + [dead])
    if any(rule == "hot-path-alloc" for _, _, rule, _ in reported):
        print("self-test FAILED: allowlisted violation still reported")
        return 1
    if stale != [dead]:
        print(f"self-test FAILED: stale entries {stale}, expected [{dead}]")
        return 1
    print("self-test passed: all banned patterns and the stale allowlist "
          "entry detected on seeded input.")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if args.self_test:
        return run_self_test()
    return run_lint(args.root.resolve())


if __name__ == "__main__":
    sys.exit(main())
