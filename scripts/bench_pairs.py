#!/usr/bin/env python3
"""Alternating benchmark pairs of two git revisions.

Usage:
    python3 scripts/bench_pairs.py BASE CHANGE [--workloads W ...]
        [--first-seed S] [--pairs N]

Extracts BASE and CHANGE with ``git archive`` into a temporary
directory and runs

    python3 ddbench/run.py --workload W --seed S --seconds SECONDS --trace 0

in each, one run at a time, SECONDS being the base's ``run_seconds``.  Pair i runs both revisions on seed
FIRST_SEED + i; BASE runs first in the even pairs and CHANGE in the odd
ones, so that a drift of the host's speed falls on both sides alike.

For each workload and each end-to-end metric of the base's
``BENCHMARK.json`` it prints both sides' median and quartiles, and the
number of pairs the change won (ties count for neither).  ``claim`` reads
``yes`` when the change won at least 9 of every 10 pairs and the medians
differ by more than the base's q1-q3 spread: the evidence a speed claim
needs.  ``regress`` reads ``yes`` when the change's median is worse than
the base's by more than the metric's ``bound`` (a fraction of the base's
median): the evidence that a change claiming no gain costs nothing.
Each workload also prints the share of failed operations, failed over
attempted summed over its runs, of both sides.  Every run is printed as
it ends, with ``correct`` and the counts of attempted and failed
operations.

The working tree and the git directory are not touched.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True, text=True).stdout.strip()


def bench(checkout: pathlib.Path, workload: str, seed: int,
          seconds: float) -> dict:
    """The last line of one ddbench/run.py run, as JSON."""
    proc = subprocess.run(
        [sys.executable, "ddbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(base: list, change: list, better: str) -> dict:
    """Medians, quartiles, wins of the change and whether a gain may be
    claimed, for one metric over the pairs."""
    sign = 1 if better == "lower" else -1
    bq, cq = (statistics.quantiles(v, n=4, method="inclusive")
              for v in (base, change))
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, change))
    return {"base": bq, "change": cq, "wins": wins, "pairs": len(base),
            "claim": (10 * wins >= 9 * len(base)
                      and sign * (bq[1] - cq[1]) > bq[2] - bq[0])}


def regress(base_median: float, change_median: float, better: str,
            bound: float) -> bool:
    """Whether the change's median is worse than the base's by more than
    `bound`, a fraction of the base's median."""
    sign = 1 if better == "lower" else -1
    return sign * (change_median - base_median) > bound * abs(base_median)


def failed_share(runs: list) -> str:
    """failed/attempted over the runs, summed."""
    return (f"{sum(r['failed'] for r in runs)}/"
            f"{sum(r['attempted'] for r in runs)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--workloads", nargs="+", default=None,
                    help="default: every workload of BENCHMARK.json")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 (quartiles need two runs)")

    revs = {"base": git("rev-parse", args.base),
            "change": git("rev-parse", args.change)}
    runs = []
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        dirs = {side: pathlib.Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            dirs[side].mkdir()
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                                     check=True, capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(dirs[side])],
                           input=archive, check=True)
        spec = json.loads((dirs["base"] / "BENCHMARK.json").read_text())
        workloads = args.workloads or [w["name"] for w in spec["workloads"]]
        for workload in workloads:
            for i in range(args.pairs):
                seed = args.first_seed + i
                order = ("base", "change") if i % 2 == 0 else \
                    ("change", "base")
                for side in order:
                    out = bench(dirs[side], workload, seed,
                                spec["run_seconds"])
                    runs.append({"workload": workload, "pair": i,
                                 "seed": seed, "side": side, **out})
                    values = " ".join(f"{k}={v['value']:.4f}"
                                      for k, v in out["metrics"].items())
                    print(f"{workload} pair {i} seed {seed} {side}: "
                          f"correct={out['correct']} attempted="
                          f"{out['attempted']} failed={out['failed']} "
                          f"{values}", flush=True)

    print(f"\nbase {revs['base'][:10]}, change {revs['change'][:10]}; "
          "median (q1-q3), wins of the change")
    for workload in workloads:
        sides = {side: [r for r in runs if r["workload"] == workload
                        and r["side"] == side] for side in revs}
        print(f"{workload:16} failed/attempted base "
              f"{failed_share(sides['base'])} -> change "
              f"{failed_share(sides['change'])}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base, change = ([r["metrics"][name]["value"] for r in sides[side]]
                            for side in ("base", "change"))
            s = summary(base, change, metric["better"])
            (b1, b2, b3), (c1, c2, c3) = s["base"], s["change"]
            worse = regress(b2, c2, metric["better"], metric["bound"])
            print(f"{workload:16} {name:12} {b2:.4f} ({b1:.4f}-{b3:.4f}) -> "
                  f"{c2:.4f} ({c1:.4f}-{c3:.4f})  wins {s['wins']}/"
                  f"{s['pairs']}  claim {'yes' if s['claim'] else 'no'}  "
                  f"regress {'yes' if worse else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
