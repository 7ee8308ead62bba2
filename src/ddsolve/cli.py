"""Command-line interface.

Subcommands::

    check FILE                         integrability check
    solve FILE [--assume-irreducible] [--json OUT]
    verify FILE SOLFILE [--terms N] [--t0 Q]
    tools {disp|standard|split|moser|ratsol|petkovsek|hyperexp} ...

Exit codes: 0 = Solved / pass; 1 = NoSolution / NoLiouvillianSolutions /
failed verification; 2 = Unsupported / Inconclusive; 3 = input error;
4 = internal error (an exception the solver did not expect, such as a
failed internal check).
"""

from __future__ import annotations

import argparse
import json
import sys as _sys

import sympy as sp

from .closedform import (UnsupportedCase, hyper_ratios, hyperexp_solutions,
                         ratio_expr, recurrence_polys)
from .difftools import dispersion, split_alpha_beta_power, standard_decompose
from .fields import (TRIVIAL_TOWER, FieldError, dm_cleared, dm_inv,
                     regular_matrix)
from .files import SchemaError, read_solution, read_system, write_solution
from .moser import ReductionStalled, moser_reduce
from .parsing import (ParseError, parse_element, parse_ratfunc, print_element,
                      print_matrix, print_ratfunc)
from .procedures import solve_liouvillian, verification_point_fault
from .ratsol import rational_solutions
from .sequences import (WINDOW_TERMS, verify_certificates,
                        verify_numeric_window)

__all__ = ["main"]

EXIT_SOLVED = 0
EXIT_NO_SOLUTION = 1
EXIT_INCONCLUSIVE = 2
EXIT_INPUT_ERROR = 3
EXIT_INTERNAL_ERROR = 4

_VERDICT_EXIT = {
    "Solved": EXIT_SOLVED,
    "NoSolution": EXIT_NO_SOLUTION,
    "NoLiouvillianSolutions": EXIT_NO_SOLUTION,
    "Unsupported": EXIT_INCONCLUSIVE,
    "Inconclusive": EXIT_INCONCLUSIVE,
}


def _print_matrix(name: str, D, tower=TRIVIAL_TOWER):
    """The matrix over the tower whose K-form is D, one row a line."""
    print(f"{name} =")
    for row in print_matrix(D, tower):
        print(f"  [ {'  '.join(row)} ]")


def _cmd_check(args) -> int:
    try:
        system = read_system(args.file)
    except SchemaError as err:
        print(f"input error: {err}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        level = system.integrability_level
    except FieldError as err:   # singular A
        print(f"input error: {err}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    if level == 1:
        print("integrable: sigma(B) = delta(A)A^-1 + ABA^-1 holds")
        return EXIT_SOLVED
    residual = system.integrability_residual()
    if not level:
        print("not integrable; residual sigma(B) - delta(A)A^-1 - ABA^-1:")
        _print_matrix("residual", residual)
        return EXIT_INPUT_ERROR
    print(f"integrable at the sigma^{level} level only;"
          " residual of the sigma-level identity:")
    _print_matrix("residual", residual)
    return EXIT_SOLVED


def _human_report(outcome):
    print(f"verdict: {outcome.kind}"
          + (f" ({outcome.provenance})" if outcome.provenance else ""))
    if outcome.reason:
        print(f"reason: {outcome.reason}")
    rep = outcome.report or {}
    for sub in ("dp1", "dp2"):
        if sub in rep:
            d = rep[sub]
            print(f"{sub}: {d.get('kind')} stages={d.get('stages')}"
                  + (f" [{d.get('reason')}]" if d.get("reason") else ""))
    for note in rep.get("assumptions", []):
        print(f"assumption: {note}")
    nf = outcome.normal_form
    if nf is not None:
        tw = nf.tower
        print(f"alpha = {print_element(nf.alpha_K, tw)}")
        for i, b in enumerate(nf.betas_K):
            print(f"beta_{i + 1} = {print_element(b, tw)}")
        for i, c in enumerate(nf.cs_K + nf.bhats_K):
            print(f"c_{i + 1} = {print_element(c, tw)}")
        if nf.ell != 1:
            print(f"interlacing period = {nf.ell}, j0 = {nf.j0}")
        for key in ("G", "Bbar"):
            if key in rep:
                form = rep.form(key)
                _print_matrix(key, form.value, form.tower)
    for k, sol in enumerate(outcome.solutions or []):
        part, i = sol.part, sol.part.shift
        what = ("hypergeometric" if i is None else
                f"interlaced, class {i} mod {part.m}")
        (r,), (c,) = (print_matrix(D, sol.tower)[0] for D in (part.r, part.c))
        print(f"solution {k} ({what}): sigma-ratio {r}, delta-ratio {c}")
    if "verification" in rep:
        print(f"verified: {rep['verification']}")


def _cmd_solve(args) -> int:
    try:
        system = read_system(args.file)
    except SchemaError as err:
        print(f"input error: {err}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    if args.assume_irreducible:
        system.assume_irreducible = True
    try:
        outcome = solve_liouvillian(system)
    except ValueError as err:
        print(f"input error: {err}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    _human_report(outcome)
    if args.json:
        write_solution(args.json, outcome)
    return _VERDICT_EXIT.get(outcome.kind, EXIT_INCONCLUSIVE)


def _cmd_verify(args) -> int:
    try:
        if args.terms < 1:
            raise SchemaError("", f"--terms must be >= 1, got {args.terms}")
        system = read_system(args.file)
        _, sols, _ = read_solution(args.solfile)
    except SchemaError as err:
        print(f"input error: {err}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    if not sols:
        print("no solutions in file")
        return EXIT_NO_SOLUTION
    for k, sol in enumerate(sols):
        if sol.part.W.shape[0] != system.n * sol.tower.degree:
            print(f"input error: /solutions/{k}/W: expected {system.n} "
                  "entries, the order of the system", file=_sys.stderr)
            return EXIT_INPUT_ERROR
    t0 = None
    if args.t0 is not None:
        try:
            t0 = sp.Rational(args.t0)
        except (TypeError, ValueError, ZeroDivisionError):
            print(f"input error: --t0 {args.t0!r} is not a rational number",
                  file=_sys.stderr)
            return EXIT_INPUT_ERROR
        fault = verification_point_fault(system, sols, t0)
        if fault is not None:
            print(f"input error: --t0 {t0} is not a valid verification "
                  f"point: {fault}", file=_sys.stderr)
            return EXIT_INPUT_ERROR
    all_ok = True
    for k, sol in enumerate(sols):
        res = verify_certificates(system, sol)
        for f in res.failures:
            print(f"solution {k}: FAIL {f}")
        ok = res.ok
        if ok and t0 is not None:
            resn = verify_numeric_window(system, sol, t0, terms=args.terms)
            for f in resn.failures:
                print(f"solution {k}: FAIL {f}")
            ok = resn.ok
        print(f"solution {k}: {'ok' if ok else 'FAILED'}")
        all_ok = all_ok and ok
    return EXIT_SOLVED if all_ok else EXIT_NO_SOLUTION


# ---------------------------------------------------------------------------
# tools

def _read_matrix_file(path: str):
    """The K-form of the square matrix over Q(x, t) in the file's "M" field;
    SchemaError otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        rows = [[parse_element(e) for e in row] for row in data["M"]]
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ParseError,
            FieldError) as err:
        raise SchemaError("/M", str(err))
    if not rows or any(len(row) != len(rows) for row in rows):
        raise SchemaError("/M", "matrix must be square and nonempty")
    return regular_matrix([a for row in rows for a in row],
                          (len(rows), len(rows)))


def _cmd_tools(args) -> int:
    try:
        return _dispatch_tool(args)
    except (SchemaError, ParseError, ZeroDivisionError) as err:
        print(f"input error: {err}", file=_sys.stderr)
        return EXIT_INPUT_ERROR
    except (UnsupportedCase, ReductionStalled) as err:
        print(f"unsupported: {err}", file=_sys.stderr)
        return EXIT_INCONCLUSIVE


# tool -> number of arguments; None: one or more
_TOOL_ARGS = {"disp": 1, "standard": 1, "split": 2, "moser": 1, "ratsol": 1,
              "hyperexp": 1, "petkovsek": None}


def _check_tool_args(args):
    """SchemaError for --step < 1, a misplaced option or a wrong count."""
    if args.step < 1:
        raise SchemaError("", f"--step must be >= 1, got {args.step}")
    for a in args.expr:     # "--x" is the expression x, "--step" an option
        if a.split("=")[0] in ("--step", "--help"):
            raise SchemaError("", f"misplaced option {a}: give options "
                                  "before the tool name")
    want = _TOOL_ARGS[args.tool]
    if len(args.expr) != want and not (want is None and args.expr):
        raise SchemaError("", f"{args.tool} takes {want or 'at least 1'} "
                              f"argument(s), got {len(args.expr)}; options "
                              "such as --step go before the tool name")


def _parse_K(s: str):
    """s as a nonzero element of K = Q(x, t); SchemaError otherwise."""
    try:
        a = parse_element(s)
    except FieldError as err:
        raise SchemaError("", str(err))
    if not a:
        raise SchemaError("", f"expression must be nonzero: {s}")
    return a[0]


def _dispatch_tool(args) -> int:
    _check_tool_args(args)
    if args.tool == "disp":
        print(dispersion(_parse_K(args.expr[0])))
        return EXIT_SOLVED
    if args.tool == "standard":
        sd = standard_decompose(_parse_K(args.expr[0]), args.step)
        print(f"g = {print_element([sd.g])}")
        print(f"standard = {print_element([sd.standard_part])}")
        return EXIT_SOLVED
    if args.tool == "split":
        a = _parse_K(args.expr[0])
        n = int(args.expr[1]) if args.expr[1].isdecimal() else 0
        if n < 1:
            raise SchemaError("", "n must be a positive integer: "
                                  f"{args.expr[1]}")
        res = split_alpha_beta_power(a, n)
        if res is None:
            print("no alpha(x)^n * beta(t) split")
            return EXIT_NO_SOLUTION
        alpha, beta = res
        print(f"alpha = {print_element([alpha])}")
        print(f"beta = {print_element([beta])}")
        return EXIT_SOLVED
    if args.tool == "moser":
        D = _read_matrix_file(args.expr[0])
        if D.is_zero_matrix:
            raise SchemaError("/M", "moser needs a nonzero matrix")
        rep = moser_reduce(D)
        print(f"ord = {rep.ord}")
        print(f"moser_order = {rep.moser_order}")
        _print_matrix("gauge", rep.gauge)
        _print_matrix("reduced", rep.reduced)
        return EXIT_SOLVED
    if args.tool == "ratsol":
        M = _read_matrix_file(args.expr[0])
        try:
            M_inv = dm_inv(M)
        except FieldError:
            raise SchemaError("/M", "matrix must be invertible")
        basis = rational_solutions(dm_cleared(M), dm_cleared(M_inv),
                                   args.step, TRIVIAL_TOWER)
        if not basis:
            print("no nonzero rational solutions")
            return EXIT_NO_SOLUTION
        for k, V in enumerate(basis):
            vec = "  ".join(e for row in print_matrix(V) for e in row)
            print(f"V_{k} = [ {vec} ]")
        return EXIT_SOLVED
    if args.tool == "petkovsek":
        ps = [parse_ratfunc(s) for s in args.expr]
        try:
            ps = recurrence_polys(ps)
        except ValueError as err:
            raise SchemaError("", str(err))
        ratios = hyper_ratios(ps, args.step)
        if not ratios:
            print("no hypergeometric solutions")
            return EXIT_NO_SOLUTION
        for K, num, den in ratios:
            r = ratio_expr(K, num, den)
            # a quadratic constant is beyond the file grammar
            print(print_ratfunc(r) if K == sp.QQ else sp.sstr(r))
        return EXIT_SOLVED
    if args.tool == "hyperexp":
        cands = hyperexp_solutions(_read_matrix_file(args.expr[0]))
        if not cands:
            print("no hyperexponential solutions")
            return EXIT_NO_SOLUTION
        for c in cands:
            vec = "  ".join(e for row in print_matrix(c.V, c.tower)
                           for e in row)
            cert = print_element(c.certificate, c.tower)
            print(f"certificate = {cert}   V = [ {vec} ]")
        return EXIT_SOLVED
    raise SchemaError("", f"unknown tool {args.tool}")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ddsolve",
        description="Liouvillian solutions of integrable difference-"
                    "differential systems over Q(x, t).")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="integrability check")
    p.add_argument("file")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("solve", help="full decision procedure")
    p.add_argument("file")
    p.add_argument("--assume-irreducible", action="store_true")
    p.add_argument("--json", metavar="OUT", default=None)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="re-verify a solution file")
    p.add_argument("file")
    p.add_argument("solfile")
    p.add_argument("--terms", type=int, default=WINDOW_TERMS)
    p.add_argument("--t0", default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tools", help="subroutine access")
    p.add_argument("--step", type=int, default=1,
                   help="shift step m of sigma^m (disp ignores it)")
    p.add_argument("tool", choices=["disp", "standard", "split", "moser",
                                    "ratsol", "petkovsek", "hyperexp"])
    # REMAINDER so expressions may start with '-'; give --step before the
    # tool name
    p.add_argument("expr", nargs=argparse.REMAINDER,
                   help="expressions, or a matrix file for "
                        "moser/ratsol/hyperexp")
    p.set_defaults(func=_cmd_tools)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as err:
        # never let an internal failure exit as a verdict
        message = str(err).replace("\n", " ")
        print(f"internal error: {type(err).__name__}: {message}",
              file=_sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
