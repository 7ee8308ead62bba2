"""JSON file formats for systems and solutions.

System files::

    { "n": int,
      "A": n x n array of expression strings in x and t,
      "B": n x n array of expression strings in x and t,
      "assumptions": { "irreducible_over_k0": bool } }

Solution files::

    { "provenance": str,
      "tower": minimal-polynomial string or "trivial",
      "solutions": [ { "kind": str, "W": [expression strings],
                       "sigma_ratio": str, "sigma_step": int,
                       "delta_ratio": str, "shift": int } ],
      "report": { ... } }

:func:`read_system` reads the entries of A and B as sympy expressions
(:func:`~ddsolve.parsing.parse_ratfunc`).  :func:`read_solution` parses
every entry straight into its K-form
(:func:`~ddsolve.parsing.parse_element`): it gives a tower built from its
modulus and solutions that hold the K-forms of their part, whose sympy
expressions are formed only when something reads them.

Schema violations are reported with the JSON pointer of the offending
location (e.g. a missing "B" key raises ``SchemaError('/B')``, and an
entry that divides by zero ``SchemaError('/A/0/1')``).
"""

from __future__ import annotations

import json

import sympy as sp

from .fields import (TRIVIAL_TOWER, FieldError, Tower, regular_matrix, theta,
                     tower_from_modulus)
from .parsing import (ParseError, parse_element, parse_ratfunc,
                      parse_theta_poly, print_ratfunc)
from .procedures import DDSystem, Outcome
from .sequences import LiouvilleSolution, Part

__all__ = ["SchemaError", "read_system", "write_system",
           "read_solution", "write_solution", "outcome_to_dict"]


class SchemaError(ValueError):
    """Invalid file content, located by a JSON pointer; the empty pointer
    (input that is not read from a file) gives the bare message."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


def _require(obj: dict, key: str, typ, pointer: str):
    if key not in obj:
        raise SchemaError(f"{pointer}/{key}", "missing key")
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        raise SchemaError(f"{pointer}/{key}",
                          f"expected {typ.__name__}, got {type(val).__name__}")
    return val


def _parse_entry(s, pointer: str, tower: Tower = TRIVIAL_TOWER) -> list:
    """The entry string s as an element of the tower in its K-form (see
    :func:`~ddsolve.parsing.parse_element`); SchemaError at `pointer`
    otherwise."""
    if not isinstance(s, str):
        raise SchemaError(pointer, "expected an expression string")
    try:
        return parse_element(s, tower)
    except (ParseError, ZeroDivisionError, FieldError) as err:
        raise SchemaError(pointer, str(err))


def _parse_matrix(rows, n: int, pointer: str) -> sp.Matrix:
    if not isinstance(rows, list) or len(rows) != n:
        raise SchemaError(pointer, f"expected {n} rows")
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{pointer}/{i}", f"expected {n} entries")
        for j, entry in enumerate(row):
            if not isinstance(entry, str):
                raise SchemaError(f"{pointer}/{i}/{j}",
                                  "expected an expression string")
            try:
                e = parse_ratfunc(entry)
            except (ParseError, ZeroDivisionError, FieldError) as err:
                raise SchemaError(f"{pointer}/{i}/{j}", str(err))
            if theta in e.free_symbols:
                raise SchemaError(f"{pointer}/{i}/{j}",
                                  "system entries lie in Q(x, t); "
                                  "theta is not allowed")
            out.append(e)
    return sp.Matrix(n, n, out)


def _read_object(path: str) -> dict:
    """The JSON object in the file; SchemaError when the file cannot be
    read, is not JSON, or holds no object at its top level."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as err:
        raise SchemaError("", f"cannot read file: {err}")
    except json.JSONDecodeError as err:
        raise SchemaError("", f"invalid JSON: {err}")
    if not isinstance(data, dict):
        raise SchemaError("", "top level must be an object")
    return data


def read_system(path: str) -> DDSystem:
    data = _read_object(path)
    n = _require(data, "n", int, "")
    A = _parse_matrix(_require(data, "A", list, ""), n, "/A")
    B = _parse_matrix(_require(data, "B", list, ""), n, "/B")
    assume = False
    if "assumptions" in data:
        asm = _require(data, "assumptions", dict, "")
        assume = _require(asm, "irreducible_over_k0", bool, "/assumptions")
    return DDSystem(n, A, B, assume_irreducible=assume)


def _matrix_strings(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER):
    return [[print_ratfunc(M[i, j], tower) for j in range(M.shape[1])]
            for i in range(M.shape[0])]


def write_system(path: str, sys: DDSystem):
    data = {
        "n": sys.n,
        "A": _matrix_strings(sys.A),
        "B": _matrix_strings(sys.B),
        "assumptions": {"irreducible_over_k0": bool(sys.assume_irreducible)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# solution files

_JSONABLE_REPORT_KEYS = ("stages", "specialization_point", "j0",
                         "verification", "assumptions")
_EXPR_REPORT_KEYS = ("alpha", "beta", "lambda")
_MATRIX_REPORT_KEYS = ("G", "Bbar", "Bhat")


def _report_to_dict(report: dict, tower: Tower) -> dict:
    out = {}
    for key in _JSONABLE_REPORT_KEYS:
        if key in report:
            out[key] = report[key]
    for key in _EXPR_REPORT_KEYS:
        if key in report:
            out[key] = print_ratfunc(report[key], tower)
    if "beta_minpoly" in report:
        # the minimal polynomial lives over Q(t), not inside the tower
        out["beta_minpoly"] = print_ratfunc(report["beta_minpoly"],
                                            TRIVIAL_TOWER)
    for key in _MATRIX_REPORT_KEYS:
        if key in report:
            out[key] = _matrix_strings(report[key], tower)
    for sub in ("dp1", "dp2"):
        if sub in report:
            out[sub] = {k: report[sub][k]
                        for k in ("kind", "stage", "reason", "stages")
                        if k in report[sub]}
    return out


def outcome_to_dict(outcome: Outcome) -> dict:
    tower = TRIVIAL_TOWER
    sols = []
    for sol in outcome.solutions or []:
        tower = sol.tower if not sol.tower.trivial else tower
        cert = sol.cert
        sols.append({
            "kind": sol.kind,
            "W": [print_ratfunc(e, sol.tower) for e in sol.W],
            "sigma_ratio": print_ratfunc(cert.sigma_ratio, sol.tower),
            "sigma_step": cert.sigma_step,
            "delta_ratio": print_ratfunc(cert.delta_ratio, sol.tower),
            "shift": sol.part.shift or 0,
        })
    tower_str = ("trivial" if tower.trivial
                 else print_ratfunc(tower.minpoly, TRIVIAL_TOWER))
    return {
        "provenance": outcome.provenance or "",
        "verdict": outcome.kind,
        "stage": outcome.stage,
        "reason": outcome.reason,
        "tower": tower_str,
        "solutions": sols,
        "report": _report_to_dict(outcome.report or {}, tower),
    }


def write_solution(path: str, outcome: Outcome):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(outcome_to_dict(outcome), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_solution(path: str):
    """Solution file -> (tower, [LiouvilleSolution], raw dict).  Each
    solution holds the K-forms of its part (see
    :class:`~ddsolve.sequences.LiouvilleSolution`); a kind other than
    Hypergeometric and Interlaced is a SchemaError."""
    data = _read_object(path)
    tower_str = _require(data, "tower", str, "")
    if tower_str == "trivial":
        tower = TRIVIAL_TOWER
    else:
        try:
            tower = tower_from_modulus(parse_theta_poly(tower_str))
        except (ParseError, FieldError, ZeroDivisionError) as err:
            raise SchemaError("/tower", str(err))
    sols = []
    raw_sols = _require(data, "solutions", list, "")
    for k, entry in enumerate(raw_sols):
        ptr = f"/solutions/{k}"
        if not isinstance(entry, dict):
            raise SchemaError(ptr, "expected an object")
        kind = _require(entry, "kind", str, ptr)
        if kind not in ("Hypergeometric", "Interlaced"):
            raise SchemaError(f"{ptr}/kind",
                              f"unknown solution kind {kind!r}")
        W = [_parse_entry(s, f"{ptr}/W/{i}", tower)
             for i, s in enumerate(_require(entry, "W", list, ptr))]
        r, c = (_parse_entry(_require(entry, key, str, ptr), f"{ptr}/{key}",
                             tower) for key in ("sigma_ratio", "delta_ratio"))
        if not W:
            raise SchemaError(f"{ptr}/W", "expected a nonempty list")
        m = _require(entry, "sigma_step", int, ptr)
        if m < 1:
            raise SchemaError(f"{ptr}/sigma_step", "expected an integer >= 1")
        shift_idx = _require(entry, "shift", int, ptr)
        sols.append(LiouvilleSolution(kind, Part(
            regular_matrix(W, (len(W), 1), tower),
            *(regular_matrix([a], (1, 1), tower) for a in (r, c)), m,
            shift_idx if kind == "Interlaced" else None), tower))
    return tower, sols, data
