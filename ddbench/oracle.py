"""Hand-written known answers for every benchmark input.

Nothing here is taken from the solver.  The answers come from how each
input is built (see README.md in this directory):

* example1: Solved by DP1 over Q(t)(theta), theta^2 = t^2 + 1, with
  alpha = x^2 + 1 and delta-certificates t*x/(t^2+1) + 1 +- theta;
* example2: Solved by DP2 with beta = t^3 and the diagonal delta-part
  diag(x/t + t, x/t + t^2, x/t + t^3);
* hermite: NoLiouvillianSolutions;
* a gauged copy of a system has the verdict of its source;
* ``ddsolve verify`` exits 0 on a genuine solution file and 1 on a copy
  with one certificate changed (``solutions/``).

An operation *fails* when it raises, returns Inconclusive on an input whose
answer is known, or disagrees with the known answer.  It is also *wrong*
unless it is an Inconclusive on a gauged copy: an operation that raises
gives no verdict that could be counted as right, and the ungauged bundled
systems are decided by the program, so an Inconclusive there is a
regression.  On a gauged copy Inconclusive is a known failure to decide
(DP1 stage b), not a wrong answer.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp

x, t, theta = sp.symbols("x t theta")
THETA_MINPOLY = theta**2 - t**2 - 1


@dataclass
class Check:
    failed: bool = False
    wrong: bool = False
    reason: str = ""

    def fail(self, reason: str, wrong: bool):
        self.failed = True
        self.wrong = self.wrong or wrong
        self.reason = "; ".join(r for r in (self.reason, reason) if r)


def _is_zero(e, minpoly=None) -> bool:
    """e == 0 in Q(x, t), or in Q(x, t)[theta]/(minpoly)."""
    num, _den = sp.fraction(sp.cancel(sp.together(sp.sympify(e))))
    num = sp.expand(num)
    if minpoly is not None:
        num = sp.rem(num, minpoly, theta)
    return sp.expand(num) == 0


def _same_multiset(got, expected, minpoly=None) -> bool:
    left = list(expected)
    for g in got:
        for k, e in enumerate(left):
            if _is_zero(g - e, minpoly):
                del left[k]
                break
        else:
            return False
    return not left


def _check_example1(outcome, check: Check, gauged: bool):
    if outcome.provenance != "DP1":
        check.fail(f"provenance {outcome.provenance!r}, expected DP1", True)
    alpha = outcome.report.get("alpha")
    if alpha is None or not _is_zero(alpha - (x**2 + 1)):
        check.fail(f"alpha = {alpha}, expected x^2+1", True)
    if gauged:
        return
    certs = [s.cert.delta_ratio for s in outcome.solutions]
    base = t * x / (t**2 + 1) + 1
    if not _same_multiset(certs, [base + theta, base - theta],
                          THETA_MINPOLY):
        check.fail(f"delta-certificates {certs}, expected "
                   "t*x/(t^2+1) + 1 +- theta", True)


def _check_example2(outcome, check: Check, _gauged: bool):
    # no gauged copies of example2 are generated
    if outcome.provenance != "DP2":
        check.fail(f"provenance {outcome.provenance!r}, expected DP2", True)
    beta = outcome.report.get("beta")
    if beta is None or not _is_zero(beta - t**3):
        check.fail(f"beta = {beta}, expected t^3", True)
    Bbar = outcome.report.get("Bbar")
    expected = [x / t + t, x / t + t**2, x / t + t**3]
    if Bbar is None or any(not _is_zero(Bbar[i, j]) for i in range(3)
                           for j in range(3) if i != j):
        check.fail("Bbar is not diagonal", True)
    elif not all(_is_zero(Bbar[i, i] - e) for i, e in enumerate(expected)):
        check.fail(f"diag(Bbar) = {[Bbar[i, i] for i in range(3)]}, "
                   "expected x/t + t^k for k = 1, 2, 3", True)


# source system -> (verdict, check of a Solved outcome or None)
SOLVE = {
    "example1": ("Solved", _check_example1),
    "example2": ("Solved", _check_example2),
    "hermite": ("NoLiouvillianSolutions", None),
}


def check_solve(source: str, outcome, gauged: bool = False) -> Check:
    """Judge a solve outcome against the known answer for `source`.

    A gauged copy keeps its source's verdict, provenance and alpha/beta
    (det G = +-1 leaves det A unchanged), but its certificates may be
    normalized differently, so they are not compared."""
    verdict, detail = SOLVE[source]
    check = Check()
    if outcome.kind == "Inconclusive":
        check.fail(f"Inconclusive at {outcome.provenance} stage "
                   f"{outcome.stage}: {outcome.reason}", not gauged)
    elif outcome.kind != verdict:
        check.fail(f"verdict {outcome.kind}, expected {verdict}", True)
    elif detail is not None:
        detail(outcome, check, gauged)
    return check


# solution file -> exit code of ``ddsolve verify`` (0 pass, 1 fail)
VERIFY = {
    "example1.json": 0,
    "example1-corrupt.json": 1,
}


def check_verify(solution_file: str, exit_code: int) -> Check:
    expected = VERIFY[solution_file]
    check = Check()
    if exit_code != expected:
        check.fail(f"verify exit {exit_code}, expected {expected}", True)
    return check
