#!/usr/bin/env python3
"""Compare what the ddsolve CLI prints and writes at two git revisions.

Usage:
    python3 scripts/compare_outputs.py BASE CHANGE [--systems NAME ...]

Extracts BASE and CHANGE with ``git archive`` into a temporary directory
and runs, in each, one fresh interpreter per command on that tree's
``src``:

- ``ddsolve solve SYSTEM --json OUT``, with and without
  ``--assume-irreducible``, for every ``systems/*.json``: its stdout,
  exit code and the bytes of OUT;
- ``ddsolve check SYSTEM``: its stdout and exit code;
- ``ddsolve verify SYSTEM SOLUTION``, with and without ``--t0 1``, for
  every ``tests/golden/*.json`` and ``ddbench/solutions/*.json``, which
  it only reads: its stdout and exit code.  A solution file is verified
  against the system its name starts with, up to the first ``_`` or
  ``-`` (``example1_gauge3.json`` and ``example1-corrupt.json`` against
  ``systems/example1.json``).

``--systems`` keeps only the named systems and the solution files that
belong to them.  Every command runs with the same relative paths in both
trees, so the outputs compare byte for byte.  Each difference is printed
with a unified diff; the exit code is 1 if there is any, else 0.

The working tree and the git directory are not touched.
"""

from __future__ import annotations

import argparse
import difflib
import os
import pathlib
import re
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
_CLI = "import sys; from ddsolve.cli import main; sys.exit(main(sys.argv[1:]))"


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def extract(rev: str, into: pathlib.Path):
    into.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def commands(tree: pathlib.Path, systems: list) -> list:
    """(label, argv, written file or None) for every comparison, with
    paths relative to the tree."""
    out = []
    for name in systems:
        system = f"systems/{name}.json"
        for flags in ([], ["--assume-irreducible"]):
            written = f"compare-out/{name}{''.join(flags)}.json"
            out.append((f"solve {name} {' '.join(flags)}".strip(),
                        ["solve", system, *flags, "--json", written],
                        written))
        out.append((f"check {name}", ["check", system], None))
    for folder in ("tests/golden", "ddbench/solutions"):
        for path in sorted((tree / folder).glob("*.json")):
            name = re.split(r"[_-]", path.stem)[0]
            if name not in systems:
                continue
            for flags in ([], ["--t0", "1"]):
                out.append((f"verify {folder}/{path.name} {' '.join(flags)}"
                            .strip(), ["verify", f"systems/{name}.json",
                                       f"{folder}/{path.name}", *flags],
                            None))
    return out


def run(tree: pathlib.Path, argv: list, written) -> str:
    """What one command leaves: exit code, stdout and the written file."""
    (tree / "compare-out").mkdir(exist_ok=True)
    proc = subprocess.run([sys.executable, "-c", _CLI, *argv], cwd=tree,
                          env={**os.environ,
                               "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True)
    text = f"exit code {proc.returncode}\n--- stdout\n{proc.stdout}"
    if written is not None:
        path = tree / written
        text += "--- written\n" + (path.read_text() if path.exists()
                                   else "(no file)\n")
    return text


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--systems", nargs="+", default=None,
                    help="default: every systems/*.json of BASE")
    args = ap.parse_args(argv)

    revs = {"base": git("rev-parse", args.base),
            "change": git("rev-parse", args.change)}
    differences = 0
    with tempfile.TemporaryDirectory(prefix="compare_outputs-") as tmp:
        trees = {side: pathlib.Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            extract(rev, trees[side])
        systems = args.systems or sorted(
            p.stem for p in (trees["base"] / "systems").glob("*.json"))
        for label, cmd, written in commands(trees["base"], systems):
            base, change = (run(trees[side], cmd, written)
                            for side in revs)
            if base == change:
                print(f"same     {label}", flush=True)
                continue
            differences += 1
            print(f"DIFFERS  {label}", flush=True)
            sys.stdout.writelines(difflib.unified_diff(
                base.splitlines(True), change.splitlines(True),
                f"base {revs['base'][:10]}", f"change {revs['change'][:10]}"))
    print(f"\nbase {revs['base'][:10]}, change {revs['change'][:10]}: "
          f"{differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
