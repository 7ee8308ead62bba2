#!/usr/bin/env python3
"""ddsolve benchmark: time to a checked verdict.

Usage:
    python3 ddbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of dp1-tower, dp2-interlaced, planted-gauge, reverify, or
``all``, which runs every workload in turn and prefixes each metric with
its workload.

Run from the root of a ddsolve checkout.  Every operation runs in a fresh
interpreter (``ddbench/child.py``), one at a time: a closed loop with one
client, as a user runs one ``ddsolve solve``/``verify`` per process.  A
fresh process also keeps SymPy's cache, or any cache the program adds,
from carrying results from one repeat of an input to the next.

With ``--trace 0`` the run repeats whole passes over the workload's
operations while another pass fits in S seconds (at least one pass) and
reports the end-to-end metrics.  Their times are in host-speed seconds:
``ddbench/ticker.py`` repeats a fixed chunk of work beside the children,
and a span's time is the number of chunks finished during it divided by
REF_TICKS_PER_S.  The raw seconds are printed beside them.  With
``--trace 1`` it makes one pass with the tracer installed in every child
and reports the per-layer metrics.
Either way it prints one row per operation (verdict, stage, reason), the
failed operations with their reasons, the metrics by name with units, and
as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``correct`` is false when some output disagrees with the hand-written
oracle (``oracle.py``), or when an operation gives no verdict to check
(it raised or its child died); an Inconclusive on a gauged copy counts in
``failed`` but is not wrong.  A ``write_solution`` that raises after the
verdict is printed as a known defect and counted in neither.  See
README.md for the workloads.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer   # noqa: E402

WORKLOADS = ("dp1-tower", "dp2-interlaced", "planted-gauge", "reverify")
SOURCES = ("example1", "example2", "hermite")
SETUP_PROBES = 6       # import-only children per run, besides the ops
RUN_LIMIT_S = 170      # no child may outlive this, counted from run start
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the p90
REF_TICKS_PER_S = 100  # ticker chunks in one host-speed second
SWAP_S = 0.1           # the child and the ticker trade cores this often


def build_ops(workload: str, seed: int, work: pathlib.Path) -> list:
    """Operation specs of one pass; inputs depend only on `seed`."""
    systems = ROOT / "systems"
    solutions = HERE / "solutions"

    def solve(op, source, path, gauged=False):
        return {"op": op, "kind": "solve", "source": source,
                "system": str(path), "gauged": gauged,
                "out": str(work / f"{op}.solution.json")}

    def verify(source, solution_file):
        return {"op": f"verify-{pathlib.Path(solution_file).stem}",
                "kind": "verify", "system": str(systems / f"{source}.json"),
                "solution": str(solutions / solution_file)}

    if workload == "dp1-tower":
        return [solve("solve-example1", "example1",
                      systems / "example1.json")]
    if workload == "dp2-interlaced":
        return [solve("solve-example2", "example2",
                      systems / "example2.json")]
    if workload == "planted-gauge":
        import planted  # SymPy is loaded only where inputs are generated
        return [solve(f"solve-{name}", source, path, gauged=True)
                for name, source, path in planted.write_members(
                    seed, systems, work / "planted")]
    if workload == "reverify":
        return [verify("example1", "example1.json"),
                verify("example1", "example1-corrupt.json")]
    raise ValueError(workload)


class Ticker:
    """ticker.py, running beside the children until stop().

    The cores of a shared host drift apart: over 5 s, one ran up to 1.5
    times as fast as the other.  So the child and the ticker are each held
    to one core, and swap() trades the cores between them every SWAP_S
    seconds.  Each then sees the average speed of both cores."""

    def __init__(self, out: pathlib.Path):
        self.out = out
        self.cpus = sorted(os.sched_getaffinity(0))
        self.flip = 0
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "ticker.py"), str(out)],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True)
        self.proc.stdout.readline()   # "ready": the first chunk is done
        self.ends = None

    def swap(self, pid: int):
        """Put the ticker and every thread of process `pid` on different
        cores, the other way round from the last call."""
        if len(self.cpus) < 2:
            return
        self.flip ^= 1
        mine, theirs = self.cpus[self.flip], self.cpus[1 - self.flip]
        try:
            os.sched_setaffinity(self.proc.pid, {mine})
            for tid in os.listdir(f"/proc/{pid}/task"):
                os.sched_setaffinity(int(tid), {theirs})
        except OSError:   # the child, or one of its threads, has ended
            pass

    def stop(self):
        """Stop the ticker, wait for it and load its chunk end times."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()
        try:
            with open(self.out, encoding="utf-8") as fh:
                self.ends = json.load(fh)
        except (OSError, json.JSONDecodeError):
            self.ends = []

    def _chunks_by(self, t: float) -> float:
        """Chunks finished by time `t`, counting a fraction of the chunk
        under way in proportion to its elapsed time."""
        ends = self.ends
        i = bisect.bisect_right(ends, t)
        if i == 0 or i == len(ends):
            return float(i)
        return i + (t - ends[i - 1]) / (ends[i] - ends[i - 1])

    def seconds(self, start: float, end: float) -> float:
        """Host-speed seconds from `start` to `end` (CLOCK_MONOTONIC)."""
        return ((self._chunks_by(end) - self._chunks_by(start))
                / REF_TICKS_PER_S)


class Runner:
    """Starts one child at a time and collects its result file."""

    def __init__(self, work: pathlib.Path, started: float,
                 ticker: Ticker | None):
        self.work = work
        self.started = started
        self.ticker = ticker
        self.count = 0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        self.env = env

    def run(self, op: dict, trace: bool = False) -> dict:
        self.count += 1
        stem = self.work / f"{self.count:04d}-{op['op']}"
        spec = dict(op, result=f"{stem}.result.json",
                    spans=f"{stem}.spans.json" if trace else None)
        timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - self.started))
        with open(f"{stem}.stderr", "w+", encoding="utf-8") as err:
            spec["spawned"] = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                env=self.env, stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL, stderr=err)
            try:
                error = self._wait(proc, spec["spawned"] + timeout)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
            exited = time.monotonic()
            if proc.returncode and not error:
                err.seek(0)
                error = (f"child exited {proc.returncode}: "
                         f"{err.read().strip()[-300:]}")
        try:
            with open(spec["result"], encoding="utf-8") as fh:
                result = json.load(fh)
        except (OSError, json.JSONDecodeError):
            # no verdict to check, so the operation counts as wrong
            result = {"op": op["op"], "setup_s": None, "imported": None,
                      "op_s": exited - spec["spawned"],
                      "begun": spec["spawned"], "done": exited,
                      "verdict": "", "stage": "", "failed": True,
                      "wrong": True, "rss_mb": None, "write_error": "",
                      "trace_overhead_s": 0.0,
                      "reason": error or "child wrote no result"}
        # child start to the end of its timed call: the oracle check,
        # writing the result and interpreter teardown are not counted
        result["spawned"] = spec["spawned"]
        result["wall_s"] = result["done"] - spec["spawned"]
        result["spans"] = spec["spans"]
        return result

    def _wait(self, proc, deadline: float) -> str:
        """Wait for `proc` until `deadline`, trading cores with the ticker
        meanwhile; return an error if the deadline passed."""
        while True:
            if self.ticker is not None:
                self.ticker.swap(proc.pid)
            left = deadline - time.monotonic()
            if left <= 0:
                return f"child killed after {RUN_LIMIT_S} s from run start"
            try:
                proc.wait(timeout=min(SWAP_S, left))
                return ""
            except subprocess.TimeoutExpired:
                pass


def _quartiles(values):
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def end_to_end(passes: list, probes: list, ticker: Ticker) -> dict:
    """metric -> (value, unit, samples, raw samples or None)."""
    secs = ticker.seconds
    ops = [r for p in passes for r in p["results"]]
    walls = [sum(secs(r["spawned"], r["done"]) for r in p["results"])
             for p in passes]
    op_s = [secs(r["begun"], r["done"]) for r in ops]
    started = [r for r in probes + ops if r["imported"] is not None]
    setups = [secs(r["spawned"], r["imported"]) for r in started]
    rss = [r["rss_mb"] for r in ops if r["rss_mb"] is not None]
    # a child that died wrote no setup_s or rss_mb; if all did, report 0
    return {
        "wall_s": (statistics.median(walls), "s", walls,
                   [p["wall_s"] for p in passes]),
        "op_s_p50": (statistics.median(op_s), "s", op_s,
                     [r["op_s"] for r in ops]),
        "setup_s": (statistics.median(setups or [0.0]), "s", setups,
                    [r["setup_s"] for r in started]),
        "peak_rss_mb": (max(rss, default=0.0), "MB", rss, None),
    }


def per_layer(results: list) -> dict:
    summaries, distinct, overhead = [], 0, 0.0
    for r in results:
        if not r["spans"] or not os.path.exists(r["spans"]):
            continue
        with open(r["spans"], encoding="utf-8") as fh:
            summary = tracer.summarize(json.load(fh))
        summaries.append(summary)
        distinct += len(set(summary["fields.sigma_power_matrix"]["notes"]))
        overhead += r["trace_overhead_s"]
    agg = tracer.merge(summaries)
    out = {}
    for name in tracer.NAMES:
        rec = agg[name]
        out[f"{name}.calls"] = (rec["calls"], "count")
        out[f"{name}.total_s"] = (rec["total_s"], "s")
        out[f"{name}.self_s"] = (rec["self_s"], "s")
        out[f"{name}.raised"] = (rec["raised"], "count")
    op_s = sum(r["op_s"] for r in results)
    checked = sum(agg[f"sequences.{fn}"]["total_s"] for fn in (
        "verify_certificates", "verify_numeric_window",
        "lift_sigma_d_to_sigma"))
    gauge = agg["ratsol.gauge_from_ratios"]
    spm = agg["fields.sigma_power_matrix"]
    out["verify_share"] = (checked / op_s if op_s else 0.0, "ratio")
    out["ratsol.gauge_from_ratios.hit_ratio"] = (
        sum(gauge["notes"]) / gauge["calls"] if gauge["calls"] else 0.0,
        "ratio")
    out["fields.sigma_power_matrix.distinct_ratio"] = (
        distinct / spm["calls"] if spm["calls"] else 0.0, "ratio")
    out["trace_overhead_ratio"] = (
        op_s / (op_s - overhead) if op_s > overhead else 0.0, "ratio")
    return out


def print_ops(results: list):
    print(f"{'operation':<28} {'verdict':<24} {'stage':<9} {'op_s':>8} "
          f"{'setup_s':>7}  status  reason")
    for r in results:
        status = "WRONG" if r["wrong"] else "FAIL" if r["failed"] else "ok"
        setup = f"{r['setup_s']:.3f}" if r["setup_s"] is not None else "-"
        print(f"{r['op']:<28} {r['verdict']:<24} {r['stage']:<9} "
              f"{r['op_s']:8.3f} {setup:>7}  {status:<6}  {r['reason']}")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> tuple:
    """Run and print one workload; return (results, {metric: (value,
    unit)})."""
    started = time.monotonic()
    work = HERE / ".work" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    ticker = None
    try:
        ops = build_ops(workload, seed, work)
        if not trace:
            ticker = Ticker(work / "ticks.json")
        runner = Runner(work, started, ticker)
        passes, probes = [], []
        if trace:
            results = [runner.run(op, trace=True) for op in ops]
            passes.append({"wall_s": sum(r["wall_s"] for r in results),
                           "results": results})
        else:
            probes = [runner.run({"op": "probe", "kind": "probe"})
                      for _ in range(SETUP_PROBES)]
            loop_start = time.monotonic()
            while True:
                t0 = time.monotonic()
                results = [runner.run(op) for op in ops]
                passes.append({"wall_s": sum(r["wall_s"] for r in results),
                               "results": results})
                now = time.monotonic()
                wall = now - t0
                if (now - loop_start + wall > seconds
                        or now - started + wall > RUN_LIMIT_S):
                    break
        results = [r for p in passes for r in p["results"]]
        layers = per_layer(results) if trace else None
    finally:
        if ticker is not None:
            ticker.stop()
        shutil.rmtree(work, ignore_errors=True)

    print(f"== workload {workload}, seed {seed}, {len(passes)} pass(es) "
          f"of {len(ops)} operation(s), trace {int(trace)}")
    print_ops(results)
    failed = [r for r in results if r["failed"]]
    print(f"fail_ratio {len(failed)}/{len(results)} = "
          f"{len(failed) / len(results):.3f}")
    for r in failed:
        print(f"  {'WRONG' if r['wrong'] else 'failed'}: {r['op']}: "
              f"{r['reason']}")
    for r in results:
        if r["write_error"]:
            print(f"  known defect, not counted: {r['op']}: "
                  f"{r['write_error']}")
    if trace:
        for name, (value, unit) in layers.items():
            if value:
                print(f"{name:<52} {value:12.4f} {unit}")
        print("(per-layer metrics not listed are 0)")
        return results, layers
    report = end_to_end(passes, probes, ticker)
    if not ticker.ends:
        raise RuntimeError("the ticker recorded no chunks")
    print(f"ticker: {len(ticker.ends)} chunks; times in host-speed seconds "
          f"({REF_TICKS_PER_S} chunks each), raw seconds after them")
    for name, (value, unit, samples, raw) in report.items():
        q1, q3 = _quartiles(samples)
        line = (f"{name:<12} {value:10.4f} {unit:<3} "
                f"(q1 {q1:.4f}, q3 {q3:.4f}, n={len(samples)})")
        if raw:
            line += f"  raw {statistics.median(raw):.4f} s"
        print(line)
    op_s = report["op_s_p50"][2]
    if len(op_s) >= P90_MIN_SAMPLES:
        p90 = statistics.quantiles(op_s, n=10)[-1]
        print(f"op_s_p90     {p90:10.4f} s   (n={len(op_s)})")
    else:
        print(f"op_s_p90     omitted: {len(op_s)} samples, fewer than "
              f"{P90_MIN_SAMPLES}")
    return results, {k: (v, u) for k, (v, u, _s, _r) in report.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # so that the finally clauses stop the running child and the ticker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    missing = [p for p in [ROOT / "src" / "ddsolve" / "__init__.py"]
               + [ROOT / "systems" / f"{s}.json" for s in SOURCES]
               if not p.is_file()]
    if missing:
        print(f"not a ddsolve checkout: missing {missing[0]}",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results, metrics = [], {}
    for name in names:
        res, met = run_workload(name, args.seed, args.seconds,
                                bool(args.trace))
        results += res
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in met.items()})
    print(json.dumps({
        "correct": not any(r["wrong"] for r in results),
        "attempted": len(results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
