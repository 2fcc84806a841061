#!/usr/bin/env python3
"""Mutation gate: every theorem check in src, and each named computation
below, has a tier-1 test that fails without it.

The script copies the repository, without .git and .bench_out, to a
temporary directory and runs the tier-1 suite there once unmutated; that
run must pass.  It then applies one mutant at a time and runs
`pytest -q -x`, one process at a time; every mutant must make it fail.  The
mutants are:

- each `if ...:` directly above a `raise InternalCheckError` in src, turned
  into `if False:`, so that a new check joins the gate by itself;
- the named computation mutants in NAMED, each a text that must occur
  exactly once in its file; any other count is an error, not a skip.

Usage, from any directory, with pytest and hypothesis installed:

    python scripts/check_mutants.py

It prints one line per mutant (the first failing test, or SURVIVED) and
exits 0 when every mutant fails the suite, 1 when the unmutated suite fails
or a mutant survives, and 2 when a named mutant's text is not found
exactly once.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, text, replacement, what the mutant breaks)
NAMED = [
    ("src/ceildyn/chains.py", "            yield entries\n", "            yield entries[1:] + entries[:1]\n",
     "_split: sibling entries rotated after the law-1 check"),
    ("src/ceildyn/chains.py", "    mod = d ** (m + 1)\n", "    mod = d ** m\n",
     "_numerators: numerators held one digit short"),
    ("src/ceildyn/multmaps.py", "lpow = m.l ** (level + 1)", "lpow = m.l ** level",
     "_refine: child value stepped by l^level, not l^(level+1)"),
    ("src/ceildyn/chains.py", "for s in divisors if t % s == 0)", "for s in divisors if t % s == 0 and s != t)",
     "chain_stop_masses: recurrence skips s = t"),
    ("src/ceildyn/cli.py", "0, args.max_steps)\n", "1, args.max_steps)\n",
     "cmd_floorcheck: pass started at k = 1"),
    ("src/ceildyn/chains.py", "if d < 1 or prev % d != 0:", "if d < 1:",
     "Chain: denominators need not divide their predecessors"),
    ("src/ceildyn/multmaps.py", "if (l * b + off) % d != 0:", "if False:",
     "PeriodicallyLinearMap: offsets need not be congruent to -l*b"),
    ("src/ceildyn/window.py", "if not 0 <= scaled_residue < base ** valid_digits:", "if False:",
     "DigitWindow: residue need not lie below the window modulus"),
    ("src/ceildyn/window.py", "if 0 < u < d:", "if u < d:",
     "_window_theta: negative starts taken for fixed points"),
    ("src/ceildyn/window.py", "log10_of_int(abs(u))", "log10_of_int(u)",
     "track_magnitude: log10 taken of the signed numerator"),
]

CHECK = re.compile(r"^( *)if .+:\n\1    raise InternalCheckError\b", re.M)


def mutants(root: Path) -> list[tuple[str, str, str]]:
    """(file, mutated source, description) for every mutant."""
    out = []
    for path in sorted((root / "src").rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        source = path.read_text(encoding="utf-8")
        for match in CHECK.finditer(source):
            line = source.count("\n", 0, match.start()) + 1
            mutated = source[:match.start()] + f"{match[1]}if False:" + source[source.index("\n", match.start()):]
            out.append((rel, mutated, f"{rel}:{line}: check never fires"))
    if not out:
        sys.exit("check_mutants: no `if ...: raise InternalCheckError` site found in src")
    for rel, text, replacement, what in NAMED:
        source = (root / rel).read_text(encoding="utf-8")
        if (count := source.count(text)) != 1:
            print(f"check_mutants: {what}: {text!r} occurs {count} times in {rel}, not once", file=sys.stderr)
            sys.exit(2)
        out.append((rel, source.replace(text, replacement), what))
    return out


def pytest(copy: Path, *args: str) -> tuple[int, str]:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    run = subprocess.run([sys.executable, "-m", "pytest", *args], cwd=copy, env=env,
                         stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return run.returncode, run.stdout


def main() -> int:
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ceildyn-mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", ".bench_out", "__pycache__", ".hypothesis", ".pytest_cache"))
        todo = mutants(copy)
        code, out = pytest(copy, "-q", "--continue-on-collection-errors")
        print(f"unmutated: {out.strip().splitlines()[-1]}", flush=True)
        if code != 0:
            print(out)
            return 1
        survivors = 0
        for rel, mutated, what in todo:
            target = copy / rel
            original = target.read_text(encoding="utf-8")
            target.write_text(mutated, encoding="utf-8")
            began = time.perf_counter()
            code, out = pytest(copy, "-q", "-x")
            target.write_text(original, encoding="utf-8")
            failed = re.search(r"^(?:FAILED|ERROR) (\S+)", out, re.M)
            if code == 0:
                survivors += 1
                verdict = "SURVIVED"
            else:
                verdict = "killed by " + (failed[1] if failed else f"pytest exit {code}")
            print(f"{time.perf_counter() - began:6.1f} s  {what}: {verdict}", flush=True)
    total = time.perf_counter() - start
    print(f"{len(todo) - survivors} of {len(todo)} mutants killed in {total:.0f} s")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
