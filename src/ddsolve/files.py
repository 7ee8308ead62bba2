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

:func:`read_system` and :func:`read_solution` parse every entry straight
into its K-form (:func:`~ddsolve.parsing.parse_element`), with no sympy
expression on the way: a system holds the K-forms of A and B, and a
solution file gives a tower built from its modulus and solutions that hold
the K-forms of their part.  Their sympy expressions are formed only when
something reads them.  :func:`write_system` and :func:`write_solution`
print from the K-forms (:func:`~ddsolve.parsing.print_element`), and so do
the report entries of an outcome, which it holds as K-forms.

Schema violations are reported with the JSON pointer of the offending
location (e.g. a missing "B" key raises ``SchemaError('/B')``, and an
entry that divides by zero ``SchemaError('/A/0/1')``).
"""

from __future__ import annotations

import json

from sympy.polys.matrices import DomainMatrix

from .fields import (TRIVIAL_TOWER, FieldError, Tower, regular_matrix,
                     tower_from_modulus)
from .parsing import (ParseError, parse_element, parse_theta_poly,
                      print_element, print_matrix)
from .procedures import DDSystem, Outcome, Report
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


def _parse_entry(s, pointer: str, tower: Tower = TRIVIAL_TOWER,
                 outside: str = "") -> list:
    """The entry string s as an element of the tower in its K-form (see
    :func:`~ddsolve.parsing.parse_element`); SchemaError at `pointer`
    otherwise, with the message `outside`, when given, for a value outside
    the tower (theta on the trivial tower)."""
    if not isinstance(s, str):
        raise SchemaError(pointer, "expected an expression string")
    try:
        return parse_element(s, tower)
    except FieldError as err:
        raise SchemaError(pointer, outside or str(err))
    except (ParseError, ZeroDivisionError) as err:
        raise SchemaError(pointer, str(err))


def _parse_matrix(rows, n: int, pointer: str) -> DomainMatrix:
    """The K-form of the n x n matrix over Q(x, t) in `rows`."""
    if not isinstance(rows, list) or len(rows) != n:
        raise SchemaError(pointer, f"expected {n} rows")
    entries = []
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"{pointer}/{i}", f"expected {n} entries")
        entries += [_parse_entry(entry, f"{pointer}/{i}/{j}", outside=(
            "system entries lie in Q(x, t); theta is not allowed"))
            for j, entry in enumerate(row)]
    return regular_matrix(entries, (n, n))


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


def write_system(path: str, sys: DDSystem):
    data = {
        "n": sys.n,
        "A": print_matrix(sys.A_K),
        "B": print_matrix(sys.B_K),
        "assumptions": {"irreducible_over_k0": bool(sys.assume_irreducible)},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# solution files

_JSONABLE_REPORT_KEYS = ("stages", "specialization_point", "j0",
                         "verification", "assumptions")
# elements of a tower; beta_minpoly is a polynomial in theta over Q(t),
# held over the trivial tower
_ELEMENT_REPORT_KEYS = ("alpha", "beta", "lambda", "beta_minpoly")
_MATRIX_REPORT_KEYS = ("G", "Bbar", "Bhat")


def _report_to_dict(report: Report) -> dict:
    """The JSON form of a report, its K-form entries printed over their
    own towers."""
    out = {}
    for key in _JSONABLE_REPORT_KEYS:
        if key in report:
            out[key] = report[key]
    for key in _ELEMENT_REPORT_KEYS:
        if key in report:
            form = report.form(key)
            out[key] = print_element(form.value, form.tower)
    for key in _MATRIX_REPORT_KEYS:
        if key in report:
            form = report.form(key)
            out[key] = print_matrix(form.value, form.tower)
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
        part = sol.part
        (r,), (c,) = (print_matrix(D, sol.tower)[0] for D in (part.r, part.c))
        sols.append({
            "kind": sol.kind,
            "W": [e for row in print_matrix(part.W, sol.tower) for e in row],
            "sigma_ratio": r,
            "sigma_step": part.m,
            "delta_ratio": c,
            "shift": part.shift or 0,
        })
    tower_str = ("trivial" if tower.trivial
                 else print_element(list(tower.modulus)))
    return {
        "provenance": outcome.provenance or "",
        "verdict": outcome.kind,
        "stage": outcome.stage,
        "reason": outcome.reason,
        "tower": tower_str,
        "solutions": sols,
        "report": _report_to_dict(outcome.report or Report()),
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
