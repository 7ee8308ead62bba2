"""One benchmark operation, run in a fresh interpreter.

Usage: python3 ddbench/child.py SPEC_JSON

SPEC_JSON holds ``spawned`` (the parent's CLOCK_MONOTONIC reading just
before it started this process), ``kind`` (``probe``, ``solve`` or
``verify``), the operation's files, ``result`` (where to write the
result) and ``spans`` (where to write the trace, or null for an untraced
run).  The result gives CLOCK_MONOTONIC readings when ``import ddsolve``
has ended (``imported``) and around the call into ddsolve (``begun``,
``done``), and ``rss_mb`` right after the call; the oracle check that
follows is not timed.
"""

import contextlib
import io
import json
import pathlib
import resource
import sys
import time
import traceback

import ddsolve          # timed as set-up, from the parent's "spawned"

IMPORTED = time.monotonic()

import ddsolve.cli      # noqa: E402

import oracle           # noqa: E402  (from this script's directory)
import tracer           # noqa: E402


def _solve(spec):
    """What ``ddsolve solve FILE --json OUT`` does, with the report it
    prints thrown away.  A write failure is returned, not raised: the
    verdict is still there to be checked."""
    system = ddsolve.read_system(spec["system"])
    outcome = ddsolve.solve_liouvillian(system)
    with contextlib.redirect_stdout(io.StringIO()):
        ddsolve.cli._human_report(outcome)
    try:
        ddsolve.write_solution(spec["out"], outcome)
    except Exception as err:
        return outcome, f"write_solution raised {type(err).__name__}: {err}"
    return outcome, ""


def _verify(spec):
    argv = ["verify", spec["system"], spec["solution"],
            "--t0", "1", "--terms", "30"]
    with contextlib.redirect_stdout(io.StringIO()):   # the CLI's report
        return ddsolve.cli.main(argv)


def main(spec):
    result = {"op": spec["op"], "imported": IMPORTED,
              "setup_s": IMPORTED - spec["spawned"],
              "op_s": 0.0, "verdict": "", "stage": "", "reason": "",
              "write_error": "", "trace_overhead_s": 0.0}
    trace = None
    if spec["spans"]:
        trace = tracer.Tracer(spec["op"])
        tracer.install(trace)
    check = oracle.Check()
    outcome = code = None
    result["begun"] = time.monotonic()
    try:
        if spec["kind"] == "solve":
            outcome, result["write_error"] = _solve(spec)
        elif spec["kind"] == "verify":
            code = _verify(spec)
    except Exception as err:   # no verdict to check: a wrong answer
        tb = traceback.format_exception_only(type(err), err)[-1].strip()
        check.fail(f"raised {tb}", True)
    result["done"] = time.monotonic()
    result["op_s"] = result["done"] - result["begun"]
    result["rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if outcome is not None:
        check = oracle.check_solve(spec["source"], outcome,
                                   gauged=spec["gauged"])
        result.update(verdict=outcome.kind,
                      stage=f"{outcome.provenance} {outcome.stage}".strip())
    elif code is not None:
        check = oracle.check_verify(pathlib.Path(spec["solution"]).name,
                                    code)
        result.update(verdict=f"exit {code}", stage="verify")
    result.update(failed=check.failed, wrong=check.wrong,
                  reason=check.reason or getattr(outcome, "reason", ""))
    if trace is not None:
        result["trace_overhead_s"] = trace.overhead_s
        with open(spec["spans"], "w", encoding="utf-8") as fh:
            json.dump(trace.spans, fh)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
