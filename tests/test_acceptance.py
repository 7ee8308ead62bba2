"""Acceptance gate: one test (and one pass/fail line) per criterion.

1. First worked example end-to-end through the diagonalizable branch,
   with the published alpha, beta-polynomial, delta-certificates, and
   gauge, in <= 60 s.
2. Interlaced worked example end-to-end through the compressed-system
   branch, with the published beta, sigma^3-cocycle, candidate ratios,
   diagonal delta-part, and lifted sequence window, in <= 120 s; the
   outcome's solution file re-verifies after a write/read round trip.
3. Weighted-Hermite negative test: integrable, but no liouvillian
   solutions; exits at the determinant-split stage.

Criteria 1-3 also compare the solution file of their outcome, byte for
byte, with the one in tests/golden (the regression oracle of any
refactor).
4. Subroutine property suites (delegated to the per-module suites and
   re-invoked here).
5. Cocycle and commutation laws (likewise re-invoked).
"""

import pathlib
import time

import pytest
import sympy as sp

from ddsolve.cli import main as cli_main
from ddsolve.fields import t, theta, treduce, x
from ddsolve.files import read_solution, read_system, write_solution
from ddsolve.procedures import solve_liouvillian
from ddsolve.sequences import verify_certificates, verify_numeric_window
from helpers import (mat_eq, mat_reduce, mat_shift, reference_gauge_delta_part,
                     teq)

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def _assert_matches_golden(path, name):
    assert path.read_bytes() == (GOLDEN / f"{name}.json").read_bytes(), \
        f"{name}: solution file differs from tests/golden/{name}.json"


def _column_match_up_to_sigma_constant(col_paper, cols_solver, tower):
    """Is col_paper = c(t, theta) * (some solver column) with c x-free?"""
    for col in cols_solver:
        ratios = []
        ok = True
        for a, b in zip(col_paper, col):
            a, b = treduce(a, tower), treduce(b, tower)
            if (a == 0) != (b == 0):
                ok = False
                break
            if a == 0:
                continue
            ratios.append(treduce(a / b, tower))
        if not ok or not ratios:
            continue
        c = ratios[0]
        if x in sp.sympify(c).free_symbols:
            continue
        if all(teq(r, c, tower) for r in ratios[1:]):
            return True
    return False


def test_criterion_1_first_example_end_to_end(example1_path, tmp_path):
    start = time.time()
    sys1 = read_system(example1_path)
    out = solve_liouvillian(sys1)
    elapsed = time.time() - start

    assert out.kind == "Solved" and out.provenance == "DP1"
    assert out.report["dp1"]["stages"] == ["a", "b", "c", "d1"]

    nf = out.normal_form
    tw = nf.tower
    assert sp.cancel(nf.alpha - (x**2 + 1)) == 0
    # beta-polynomial Y^2 - (t^2 + 1)
    assert sp.expand(out.report["beta_minpoly"] - (theta**2 - t**2 - 1)) == 0

    # delta-certificates t*x/(t^2+1) + 1 +- theta with theta^2 = t^2 + 1
    certs = [s.cert.delta_ratio for s in out.solutions]
    want = [t * x / (t**2 + 1) + 1 + theta, t * x / (t**2 + 1) + 1 - theta]
    for w in want:
        assert any(teq(c, w, tw) for c in certs), (w, certs)

    # both gauge identities hold exactly
    G = out.report["G"]
    ratios = [s.cert.sigma_ratio for s in out.solutions]
    lhs = mat_reduce(mat_shift(G) * sp.diag(*ratios) - sys1.A * G, tw)
    assert all(treduce(e, tw) == 0 for e in lhs)
    Bbar = out.report["Bbar"]
    assert mat_eq(reference_gauge_delta_part(G, sys1.B, tw), Bbar, tw)

    # columns span the published gauge, entrywise up to sigma-constants
    paper_G = sp.Matrix([
        [(t - theta) / (2 * (t**2 - x)), (t + theta) / (2 * (t**2 - x))],
        [(-x + t * theta) / (2 * (t**2 - x)),
         -(x + t * theta) / (2 * (t**2 - x))],
    ])
    cols = [G[:, i] for i in range(2)]
    for i in range(2):
        assert _column_match_up_to_sigma_constant(paper_G[:, i], cols, tw)

    assert elapsed <= 60, f"criterion 1 runtime {elapsed:.1f}s > 60s"

    path = tmp_path / "example1.json"
    write_solution(str(path), out)
    _assert_matches_golden(path, "example1")


def test_criterion_2_interlaced_example_end_to_end(example2_path, tmp_path):
    start = time.time()
    sys2 = read_system(example2_path)
    out = solve_liouvillian(sys2)
    elapsed = time.time() - start

    assert out.report["dp1"]["stage"] == "a"
    assert out.kind == "Solved" and out.provenance == "DP2"
    rep = out.report
    assert sp.cancel(rep["beta"] - t**3) == 0

    # sigma^3-cocycle equals the published matrix
    D = t**2 + x + 3
    paper_A3 = sp.Matrix([
        [t**3 * (t**2 * x**2 + t**2 * x + 21 * x + x**3 + 8 * x**2 + 18) / D,
         -t**4 * (x + 1) * (5 * x + 6) / D,
         2 * t**4 * (x + 2) * (x + 3) / D],
        [-2 * t**4 * (2 * x + 3) / D,
         (x + 1) * t**3 * (x**2 + t**2 * x + 2 * t**2) / D,
         -2 * t**5 * (x + 2) / D],
        [2 * t**4 * (2 * x + 3) / D,
         (x + 1) * t**3 * (5 * x + 6) / D,
         (x + 2) * (x + 3) * t**3 * (x + 1 + t**2) / D],
    ])
    assert mat_eq(mat_reduce(rep["An"]), mat_reduce(paper_A3))

    # hypergeometric candidate ratios of the t = 0 specialization
    want_ratios = [x * (x + 1), (x + 1) * (x + 2), (x + 2) * (x + 3)]
    assert rep["specialization_point"] == 0
    got = rep["candidate_ratios"]
    assert len(got) == 3
    for w in want_ratios:
        assert any(sp.cancel(g - w) == 0 for g in got), (w, got)

    # diagonal delta-part exactly as published
    want_Bbar = sp.diag(x / t + t, x / t + t**2, x / t + t**3)
    assert mat_eq(mat_reduce(rep["Bbar"]), mat_reduce(want_Bbar))

    # lifted sequence window agrees with the published first component
    # up to one common scalar prefactor
    lift0 = rep["lifts"][0]
    window = [sp.cancel(lift0.value(j)[0]) for j in range(4)]
    paper_window = [0, t / (t**2 + 1), 4 * t**3 / (t**2 + 2),
                    -6 * t**3 / (t**2 + 3)]
    assert window[0] == 0 and paper_window[0] == 0
    c = sp.cancel(paper_window[1] / window[1])
    assert c != 0
    for a, b in zip(paper_window[1:], window[1:]):
        assert sp.cancel(a - c * b) == 0, (a, b, c)

    assert elapsed <= 120, f"criterion 2 runtime {elapsed:.1f}s > 120s"

    # the outcome round-trips through a solution file and re-verifies
    path = tmp_path / "example2.json"
    write_solution(str(path), out)
    _assert_matches_golden(path, "example2")
    _, sols, _ = read_solution(str(path))
    assert [s.kind for s in sols] == ["Interlaced"] * 3
    for sol in sols:
        assert verify_certificates(sys2, sol).ok
        assert verify_numeric_window(sys2, sol, sp.Integer(1)).ok


def test_criterion_3_hermite_negative(hermite_path, tmp_path):
    assert cli_main(["check", hermite_path]) == 0
    path = tmp_path / "hermite.json"
    code = cli_main(["solve", hermite_path, "--assume-irreducible",
                     "--json", str(path)])
    assert code == 1
    _assert_matches_golden(path, "hermite")
    # stage expectation: determinant split fails in the diagonalizable
    # branch
    sys3 = read_system(hermite_path)
    out = solve_liouvillian(sys3)
    assert out.kind == "NoLiouvillianSolutions"
    assert out.report["dp1"]["stage"] == "a"


def test_criterion_4_subroutine_property_suites():
    """Re-invoke the property suites with their required case counts."""
    import test_difftools as td
    import test_moser as tm
    import test_ratsol as tr
    import test_closedform as tc
    import test_sequences as ts
    td.test_standard_decompose_recombination_100()
    td.test_dispersion_vs_bruteforce_100()
    td.test_split_alpha_beta_power_roundtrip_random()
    tm.test_moser_reduction_50_random_gauged_systems()
    tr.test_rational_solutions_planted_diagonalizable()
    tc.test_petkovsek_30_constructed_recurrences()
    ts.test_seq_from_recurrence_window()
    ts.test_lift_step_two_cross_check_30_terms()


def test_criterion_5_cocycle_and_commutation_laws():
    import test_fields as tf
    import test_procedures as tp
    tf.test_cocycle_composition_law()
    tf.test_sigma_delta_commute_200()
    tp.test_integrability_invariant_under_gauge()
