"""Call tracer wired into ddsolve from outside the program.

:func:`install` replaces each traced public function in every ``ddsolve.*``
module namespace that holds a reference to it (``procedures`` imports
``treduce`` by name, so patching ``fields`` alone would miss its calls),
and replaces ``DDSystem.validate`` on the class.  Each call records a span
``[name, start, end, parent, op, raised, note]`` in memory; the child
process writes the list out when its operation ends and :func:`summarize`
turns the spans of a pass into per-function calls, total and self time.

This module imports nothing from ddsolve at import time, so the parent
process can summarize spans without loading the program.
"""

from __future__ import annotations

import functools
import sys
import time

# module -> traced public functions ("Class.method" for methods)
TRACED = {
    "fields": ("treduce", "mat_inv", "sigma_power_matrix",
               "series_at_infinity", "make_tower", "factor_in_x"),
    "sequences": ("verify_certificates", "verify_numeric_window",
                  "lift_sigma_d_to_sigma", "first_safe_index"),
    "procedures": ("DDSystem.validate", "decision_procedure_1",
                   "decision_procedure_2", "check_integrability"),
    "ratsol": ("rational_solutions", "polynomial_solutions",
               "universal_denominator", "gauge_from_ratios"),
    "closedform": ("system_hypergeometric", "hyperexp_solutions",
                   "petkovsek"),
    "moser": ("moser_reduce", "infinity_expansion", "leading_eigendata"),
    "difftools": ("standard_decompose", "split_alpha_beta_power",
                  "leading_beta"),
    "files": ("read_system", "read_solution", "write_solution"),
}

NAMES = tuple(f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns)

NAME, START, END, PARENT, OP, RAISED, NOTE = range(7)


def _sigma_power_key(args, kwargs, result):
    # distinct (A, m) arguments; str() of a sympy matrix is canonical
    A = args[0] if args else kwargs["A"]
    m = args[1] if len(args) > 1 else kwargs["m"]
    return f"{m}:{A}"


def _is_hit(args, kwargs, result):
    return result is not None


# name -> note(args, kwargs, result), recorded on return
NOTES = {
    "fields.sigma_power_matrix": _sigma_power_key,
    "ratsol.gauge_from_ratios": _is_hit,
}


class Tracer:
    """In-memory span recorder for one operation in one process."""

    def __init__(self, op: str):
        self.op = op
        self.spans: list = []
        self._stack: list = []
        self.overhead_s = 0.0   # time spent in the wrappers' own code

    def wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op,
                    False, None]
            stack.append(len(spans))
            spans.append(span)
            t1 = span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[RAISED] = True
                raise
            finally:
                t2 = span[END] = clock()
                stack.pop()
                self.overhead_s += t1 - t0
            if note is not None:
                span[NOTE] = note(args, kwargs, result)
            self.overhead_s += clock() - t2
            return result

        return traced


def install(tracer: Tracer):
    """Wrap every function in TRACED.

    ddsolve and all its submodules must already be imported."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "ddsolve"
                                     or n.startswith("ddsolve."))]
    for mod_name, fns in TRACED.items():
        home = sys.modules[f"ddsolve.{mod_name}"]
        for fn_name in fns:
            name = f"{mod_name}.{fn_name}"
            if "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(home, cls_name)
                setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
                continue
            orig = getattr(home, fn_name)
            wrapped = tracer.wrap(name, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapped)


def _empty() -> dict:
    return {name: {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0,
                   "notes": []} for name in NAMES}


def summarize(spans: list) -> dict:
    """name -> {calls, raised, total_s, self_s, notes}.

    self_s is a span's duration minus the durations of its direct
    children.  total_s counts only spans with no ancestor of the same
    name, so recursion is not counted twice (as cProfile's cumtime).
    Span parents index into the same list, so spans of different
    operations must be summarized separately and the results merged."""
    child_s = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_s[s[PARENT]] += s[END] - s[START]
    out = _empty()
    for i, s in enumerate(spans):
        rec = out[s[NAME]]
        dur = s[END] - s[START]
        rec["calls"] += 1
        rec["raised"] += bool(s[RAISED])
        rec["self_s"] += dur - child_s[i]
        if not _has_ancestor_named(spans, i, s[NAME]):
            rec["total_s"] += dur
        if s[NOTE] is not None:
            rec["notes"].append(s[NOTE])
    return out


def _has_ancestor_named(spans, i, name):
    p = spans[i][PARENT]
    while p >= 0:
        if spans[p][NAME] == name:
            return True
        p = spans[p][PARENT]
    return False


def merge(summaries: list) -> dict:
    out = _empty()
    for summary in summaries:
        for name, rec in summary.items():
            agg = out[name]
            for key in ("calls", "raised", "total_s", "self_s"):
                agg[key] += rec[key]
            agg["notes"].extend(rec["notes"])
    return out
