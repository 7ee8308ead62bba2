import os
import random
import subprocess
import sys

import pytest
import sympy as sp

from ddsolve.fields import (TRIVIAL_TOWER, delta, make_tower, mat_delta,
                            mat_eq, mat_inv, mat_reduce, mat_shift, t, teq,
                            theta, treduce, x)
from ddsolve.procedures import (DDSystem, _certificate_normalizer,
                                _first_verification_point,
                                check_integrability, decision_procedure_1,
                                descend_gauge, solve_liouvillian)
from ddsolve.files import read_system
from conftest import ROOT, SYSTEMS, random_invertible_matrix, random_ratfunc

HERMITE_A = sp.Matrix([[0, 1], [-2 * x, 2 * t]])
HERMITE_B = sp.Matrix([[2 * t, -1], [2 * x, 0]])


# ---------------------------------------------------------------------------
# integrability

def test_check_integrability_hermite():
    ok, residual = check_integrability(HERMITE_A, HERMITE_B)
    assert ok
    assert all(treduce(e) == 0 for e in residual)


def test_check_integrability_rejects_random_pair():
    A = sp.Matrix([[x, 0], [0, 1]])
    B = sp.Matrix([[t, 1], [0, t]])
    ok, residual = check_integrability(A, B)
    assert not ok
    assert any(treduce(e) != 0 for e in residual)


def test_check_integrability_residual_matches_reference():
    """The residual computed over Q(x, t) is, entry by entry, the
    reference formula sigma(B) - delta(A)A^-1 - ABA^-1 reduced by
    mat_reduce, in the same canonical form."""
    rng = random.Random(29)
    A = random_invertible_matrix(rng, 2)
    B = sp.Matrix(2, 2, lambda i, j: random_ratfunc(rng, 1, 3))
    Ainv = mat_inv(A)
    want = mat_reduce(mat_shift(B) - mat_delta(A) * Ainv - A * B * Ainv)
    ok, residual = check_integrability(A, B)
    assert not ok
    assert any(e != 0 for e in want)
    assert [sp.srepr(e) for e in residual] == [sp.srepr(e) for e in want]


def test_validate_rejects_entries_outside_Qxt():
    with pytest.raises(ValueError):
        DDSystem(2, sp.Matrix([[theta, 0], [0, 1]]), sp.zeros(2, 2)).validate()


def test_integrability_invariant_under_gauge():
    """Criterion: transform (A, B) by random gauges G and re-check.
    A -> sigma(G) A G^-1, B -> G B G^-1 + delta(G) G^-1 preserves the
    integrability identity."""
    rng = random.Random(43)
    for _ in range(5):
        G = random_invertible_matrix(rng, 2)
        Ginv = mat_inv(G)
        A2 = mat_reduce(mat_shift(G) * HERMITE_A * Ginv)
        B2 = mat_reduce(G * HERMITE_B * Ginv + mat_delta(G) * Ginv)
        ok, _ = check_integrability(A2, B2)
        assert ok, G


def test_validate_rejects_nonprime_order():
    A = sp.eye(4)
    B = sp.zeros(4, 4)
    with pytest.raises(ValueError):
        DDSystem(4, A, B).validate()


def test_validate_rejects_non_integrable():
    A = sp.Matrix([[x, 0], [0, 1]])
    B = sp.Matrix([[t, 1], [0, t]])
    with pytest.raises(ValueError):
        DDSystem(2, A, B).validate()


def test_validate_rejects_singular_A():
    A = sp.Matrix([[1, 1], [1, 1]])
    B = sp.zeros(2, 2)
    with pytest.raises(Exception):
        DDSystem(2, A, B).validate()


def test_validate_accepts_sigma_n_level():
    """A pair that is only integrable for the sigma^n-compressed system
    validates with integrability_level = n (the interlaced example class)."""
    # planted: B diagonal constant, A a 2-cycle permutation twist; the
    # sigma-level identity needs sigma(B) = ABA^-1, which fails, but the
    # sigma^2-cocycle is diagonal and commutes
    A = sp.Matrix([[0, 1], [x, 0]])
    B = sp.diag(t, t + 1/t)
    ok, _ = check_integrability(A, B)
    if ok:
        pytest.skip("planted pair unexpectedly sigma-integrable")
    sys = DDSystem(2, A, B)
    try:
        sys.validate()
    except ValueError:
        pytest.skip("planted pair not sigma^2-integrable either")
    assert sys.integrability_level == 2


# ---------------------------------------------------------------------------
# certificate normalization

def test_certificate_normalizer_strips_integer_residues():
    c = x / t + t**2 - 1 / t
    gam = _certificate_normalizer(c)
    assert sp.cancel(gam - 1 / t) == 0
    assert sp.cancel(c - delta(gam) / gam - (x / t + t**2)) == 0


def test_certificate_normalizer_ignores_nonintegers():
    c = x / t + sp.Rational(1, 2) / t
    assert _certificate_normalizer(c) == 1
    assert _certificate_normalizer(t**3 + x / t) == 1


# ---------------------------------------------------------------------------
# gauge descent

def test_descend_gauge_trivial_passthrough():
    G = sp.Matrix([[1, x], [0, 1]])
    assert mat_eq(descend_gauge(G, sp.eye(2), sp.eye(2)), G)


def test_descend_gauge_eliminates_theta():
    tw = make_tower(theta**2 - (t**2 + 1))
    # G = G0 + theta*G1 with det(G0 + lam*G1) generically nonzero
    G = sp.Matrix([[1, theta], [theta, t]])
    A = sp.eye(2)
    Abar = mat_reduce(mat_shift(G) * A * mat_inv(G, tw), tw)
    H = descend_gauge(G, A, Abar, tw)
    assert theta not in H.free_symbols
    assert treduce(H.det()) != 0


# ---------------------------------------------------------------------------
# decision-procedure exits (cheap cases only; the worked examples run in
# the acceptance suite)

def test_dp1_stage_a_exit_on_hermite():
    sys = DDSystem(2, HERMITE_A, HERMITE_B, assume_irreducible=True)
    sys.validate()
    out = decision_procedure_1(sys)
    assert out.kind == "NoSolution"
    assert out.stage == "a"


def test_solve_requires_valid_system():
    A = sp.Matrix([[x, 0], [0, 1]])
    B = sp.Matrix([[t, 1], [0, t]])
    with pytest.raises(ValueError):
        solve_liouvillian(DDSystem(2, A, B))


# ---------------------------------------------------------------------------
# verification of Solved outcomes

_PLANTED_BAD_SOLVE = """
import sys
import sympy as sp
from ddsolve.fields import t
from ddsolve.procedures import DDSystem, Outcome, _verify_solved
from ddsolve.sequences import HypCert, LiouvilleSolution, VerificationError

assert sys.flags.optimize, "run under python -O"
# sigma(Y) = 2 Y, delta(Y) = Y / t: the sigma-ratio 3 is wrong
system = DDSystem(1, sp.Matrix([[2]]), sp.Matrix([[1 / t]]))
bad = LiouvilleSolution(kind="Hypergeometric", W=sp.Matrix([1]),
                        cert=HypCert(sp.Integer(3), 1, 1 / t))
try:
    _verify_solved(system, Outcome("Solved", solutions=[bad]))
except VerificationError as err:
    print("raised:", err)
    sys.exit(0)
print("a bad solution passed verification")
sys.exit(1)
"""


def _run_optimized(code):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    return subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_verify_solved_raises_under_python_O():
    proc = _run_optimized(_PLANTED_BAD_SOLVE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "certificate verification failed" in proc.stdout


_PLANTED_BAD_GAUGE = """
import sys
import sympy as sp
import ddsolve.ratsol as ratsol
from ddsolve.sequences import VerificationError

assert sys.flags.optimize, "run under python -O"
# sigma(G) diag(2, 3) = A G holds for G = 1, not for the swap planted here
ratsol._invertible_selection = lambda columns, tower: sp.Matrix(
    [[0, 1], [1, 0]])
try:
    ratsol.gauge_from_ratios(sp.diag(2, 3), [2, 3], 1)
except VerificationError as err:
    print("raised:", err)
    sys.exit(0)
print("a wrong gauge passed the postcondition")
sys.exit(1)
"""


def test_gauge_postcondition_raises_under_python_O():
    proc = _run_optimized(_PLANTED_BAD_GAUGE)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "gauge postcondition violated" in proc.stdout


def test_first_verification_point_rejects_vanishing_x_denominator():
    # at t = 1 the denominator (t - 1)(x + 1) vanishes for every x
    A = sp.Matrix([[1 / ((t - 1) * (x + 1)), 0], [0, 1]])
    B = sp.zeros(2, 2)
    assert _first_verification_point(DDSystem(2, A, B)) == 2


@pytest.mark.parametrize("name", ["example1", "example2", "hermite"])
def test_first_verification_point_of_bundled_systems(name):
    system = read_system(str(SYSTEMS / f"{name}.json"))
    assert _first_verification_point(system) == 1
