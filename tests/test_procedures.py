import json
import os
import random
import subprocess
import sys

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

from ddsolve import fields
from ddsolve.fields import (QQ_XT, TRIVIAL_TOWER, dm_delta, dm_from_matrix,
                            dm_shift, dm_sigma_power, dm_to_matrix, make_tower,
                            mat_inv, t, theta, treduce, x)
from ddsolve.procedures import (DDSystem, _certificate_normalizer,
                                _first_verification_point, _integrable,
                                _normalize_gauge_certificates,
                                check_integrability, decision_procedure_1,
                                decision_procedure_2, solve_liouvillian)
from ddsolve.ratsol import UnsupportedCase
from ddsolve.sequences import VerificationError, verify_certificates
from ddsolve.cli import main as cli_main
from ddsolve.files import read_system, write_system
from conftest import ROOT, SYSTEMS, random_invertible_matrix, random_ratfunc
from helpers import (delta, mat_delta, mat_eq, mat_reduce, mat_shift,
                     reference_gauge_delta_part, teq)

HERMITE_A = sp.Matrix([[0, 1], [-2 * x, 2 * t]])
HERMITE_B = sp.Matrix([[2 * t, -1], [2 * x, 0]])
# integrable at the sigma^2 level only: the sigma-level identity needs
# sigma(B) = ABA^-1, which fails, but the sigma^2-cocycle is diagonal and
# commutes with B
SIGMA2_A = sp.Matrix([[0, 1], [x, 0]])
SIGMA2_B = sp.diag(t, t + 1/t)


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
    ok, _ = check_integrability(SIGMA2_A, SIGMA2_B)
    assert not ok
    sys = DDSystem(2, SIGMA2_A, SIGMA2_B)
    sys.validate()
    assert sys.integrability_level == 2


# ---------------------------------------------------------------------------
# the fraction-free integrability test against the residual over K

def _reference_integrable(A, B, m):
    """Zero test of the reference residual
    sigma^m(B) - delta(A_m) A_m^-1 - A_m B A_m^-1 over K, A_m a product of
    shifted K-forms."""
    A, B = dm_from_matrix(A), dm_from_matrix(B)
    Am = A
    for j in range(1, m):
        Am = dm_shift(A, j) * Am
    Ainv = Am.inv()
    return (dm_shift(B, m) - dm_delta(Am) * Ainv
            - Am * B * Ainv).is_zero_matrix


def _fraction_free_integrable(A, B, m):
    return _integrable(dm_sigma_power(dm_from_matrix(A), m),
                       dm_from_matrix(B), m)


def _gauge(A, B, G):
    """(sigma(G) A G^-1, G B G^-1 + delta(G) G^-1), formed over K."""
    A, B, G = (dm_from_matrix(M) for M in (A, B, G))
    Ginv = G.inv()
    return (dm_to_matrix(dm_shift(G) * A * Ginv),
            dm_to_matrix(G * B * Ginv + dm_delta(G) * Ginv))


# rational functions whose denominators mix x and t; x + t appears in
# several, so that gauged A and B share denominator factors
_DENS = [1, t, x + 1, x + t, x * t + 1, t * (x + t)]
_ratfuncs = st.tuples(st.integers(-2, 2), st.integers(-2, 2),
                      st.integers(-2, 2), st.sampled_from(_DENS)).map(
    lambda c: (c[0] + c[1] * x + c[2] * t) / c[3])
_nonzero_ratfuncs = _ratfuncs.filter(lambda f: f != 0)


@settings(max_examples=25, deadline=None)
@given(st.lists(_ratfuncs, min_size=4, max_size=4),
       st.lists(_ratfuncs, min_size=4, max_size=4))
def test_fraction_free_integrability_agrees_on_random_pairs(a, b):
    A, B = sp.Matrix(2, 2, a) + sp.eye(2), sp.Matrix(2, 2, b)
    if treduce(A.det()) == 0:
        return
    assert _fraction_free_integrable(A, B, 1) == \
        _reference_integrable(A, B, 1)


@settings(max_examples=25, deadline=None)
@given(_nonzero_ratfuncs, _ratfuncs, st.booleans(), st.integers(0, 3),
       _ratfuncs)
def test_fraction_free_integrability_agrees_on_gauged_hermite(
        u, g, lower, spot, eps):
    """Gauge transforms of hermite are integrable at level 1; adding eps to
    one entry of B breaks that unless eps is 0."""
    G = sp.Matrix([[u, g], [0, 1]])
    A, B = _gauge(HERMITE_A, HERMITE_B, G.T if lower else G)
    B[spot] += eps
    got = _fraction_free_integrable(A, B, 1)
    assert got == _reference_integrable(A, B, 1)
    assert got == (eps == 0)


def _planted_sigma_n_pair(n, fs, h, cs):
    """A = P diag(f_i(x) h(t)), P the cyclic permutation, and
    B = diag(x h'/h + c_i(t)).  The cocycle A_n is diagonal with
    delta(A_n) A_n^-1 = n h'/h = sigma^n(B) - B, so the pair is integrable
    at level n; at level 1 the cycle needs every c_i equal."""
    P = sp.Matrix(n, n, lambda i, j: 1 if j == (i + 1) % n else 0)
    A = P * sp.diag(*[f * h for f in fs])
    B = sp.diag(*[x * sp.diff(h, t) / h + c for c in cs])
    return A, B


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([2, 3]), st.data(),
       st.sampled_from([t, t + 1, t**2 + 1]), st.booleans(),
       _nonzero_ratfuncs)
def test_fraction_free_integrability_agrees_on_planted_sigma_n_pairs(
        n, data, h, gauged, g):
    fs = data.draw(st.lists(st.sampled_from([x, x + 1, 2 * x + 1, x**2 + 3]),
                            min_size=n, max_size=n))
    cs = data.draw(st.lists(st.sampled_from([0, 1, t, 1 / t, 2 * t + 1]),
                            min_size=n, max_size=n, unique=True))
    A, B = _planted_sigma_n_pair(n, fs, h, cs)
    if gauged:
        G = sp.eye(n)
        G[0, n - 1] = g
        A, B = _gauge(A, B, G)
    for m, want in ((1, False), (n, True)):
        assert _fraction_free_integrable(A, B, m) is want
        assert _reference_integrable(A, B, m) is want
    sys = DDSystem(n, A, B)
    sys.validate()
    assert sys.integrability_level == n
    B[0, 0] += 1 / (x + t)
    assert not _fraction_free_integrable(A, B, n)
    assert not _reference_integrable(A, B, n)


def test_validate_forms_no_inverse(monkeypatch):
    """validate decides integrability on cleared numerators: with
    DomainMatrix.inv disabled it still accepts the bundled systems and the
    sigma^2-level pair, at their levels."""
    systems = [read_system(str(SYSTEMS / f"{name}.json"))
               for name in ("example1", "example2", "hermite")]
    systems.append(DDSystem(2, SIGMA2_A, SIGMA2_B))

    def no_inverse(self):
        raise AssertionError("validate formed an inverse")

    monkeypatch.setattr(DomainMatrix, "inv", no_inverse)
    for sys in systems:
        sys.validate()
    assert [s.integrability_level for s in systems] == [1, 3, 1, 2]
    assert check_integrability(HERMITE_A, HERMITE_B)[0]


# ---------------------------------------------------------------------------
# certificate normalization

def _normalizer(c):
    """_certificate_normalizer on c in Q(x, t), gamma as an expression."""
    return QQ_XT.to_sympy(_certificate_normalizer(QQ_XT.from_sympy(c)))


def test_certificate_normalizer_strips_integer_residues():
    c = x / t + t**2 - 1 / t
    gam = _normalizer(c)
    assert sp.cancel(gam - 1 / t) == 0
    assert sp.cancel(c - delta(gam) / gam - (x / t + t**2)) == 0


def test_certificate_normalizer_ignores_nonintegers():
    c = x / t + sp.Rational(1, 2) / t
    assert _normalizer(c) == 1
    assert _normalizer(t**3 + x / t) == 1


@pytest.mark.parametrize("c, gamma", [
    (1 / (2 * t - 1), 1),
    (3 / (2 * t - 1), 1),
    (2 / (2 * t - 1), t - sp.Rational(1, 2)),
    (-4 / (2 * t - 1) + x, (t - sp.Rational(1, 2))**-2),
    (1 / (2 * t - 1) + 2 / t, t**2),
])
def test_certificate_normalizer_at_a_rational_pole(c, gamma):
    """At the pole 1/2 of 2t - 1 the residues 1/2, 3/2, 1 and -2 are
    quotients of integers, formed in QQ: the two non-integers are left,
    the integers stripped by (t - 1/2)^res."""
    gam = _normalizer(c)
    assert sp.cancel(gam - gamma) == 0


def test_normalize_gauge_certificates_on_immutable_matrices():
    """The gauge and delta-part arrive as K-forms; rescaling a column
    returns new ones and leaves the arguments as they are (on immutable
    sympy matrices it once raised TypeError, an internal error, on gauged
    copies of example2)."""
    G = dm_from_matrix(sp.Matrix([[1, x], [0, 1]]))
    Bbar = dm_from_matrix(sp.Matrix([[x / t + t**2 - 1 / t, 0], [0, 2]]))
    G2, Bbar2 = _normalize_gauge_certificates(G, Bbar, TRIVIAL_TOWER)
    assert mat_eq(dm_to_matrix(G2), sp.Matrix([[1 / t, x], [0, 1]]))
    assert mat_eq(dm_to_matrix(Bbar2), sp.diag(x / t + t**2, 2))
    assert G == dm_from_matrix(sp.Matrix([[1, x], [0, 1]]))


def test_normalize_gauge_certificates_over_a_tower():
    """Over theta^2 = t the theta^0 coordinate 2/(t - 1) - 1/t + x/t of a
    certificate has the integer residues 2 at t = 1 and -1 at t = 0 in its
    x-free part: gamma = (t - 1)^2 / t.  The x-term and the theta-coordinate
    1/(t - 1) stay; the residue 1/2 of the other certificate gives
    gamma = 1."""
    tower = make_tower(theta**2 - t)
    c = 2 / (t - 1) - 1 / t + x / t + theta / (t - 1)
    G = dm_from_matrix(sp.Matrix([[1, theta], [0, 1]]), tower)
    Bbar = dm_from_matrix(sp.diag(c, 1 / (2 * t)), tower)
    G2, Bbar2 = _normalize_gauge_certificates(G, Bbar, tower)
    assert mat_eq(dm_to_matrix(G2, tower),
                  sp.Matrix([[(t - 1)**2 / t, theta], [0, 1]]), tower)
    assert mat_eq(dm_to_matrix(Bbar2, tower),
                  sp.diag(x / t + theta / (t - 1), 1 / (2 * t)), tower)


# ---------------------------------------------------------------------------
# decision-procedure exits (cheap cases only; the worked examples run in
# the acceptance suite)

def test_dp1_stage_a_exit_on_hermite():
    sys = DDSystem(2, HERMITE_A, HERMITE_B, assume_irreducible=True)
    sys.validate()
    out = decision_procedure_1(sys)
    assert out.kind == "NoSolution"
    assert out.stage == "a"


def test_dp1_solves_gauged_example1():
    """example1 under the unimodular gauge G: A' = sigma(G)^-1 A G,
    B' = G^-1 (B G - delta(G)).  Its Moser reduction at infinity needs a
    basis change of ker H0 before the shearing."""
    ex1 = read_system(str(SYSTEMS / "example1.json"))
    G = sp.Matrix([[1, t - 2 * x + 1], [0, 1]])
    A = mat_reduce(mat_inv(mat_shift(G)) * ex1.A * G)
    B = mat_reduce(mat_inv(G) * (ex1.B * G - mat_delta(G)))
    sys = DDSystem(2, A, B, assume_irreducible=True)
    sys.validate()
    out = decision_procedure_1(sys)
    assert (out.kind, out.provenance) == ("Solved", "DP1")
    assert out.solutions
    for sol in out.solutions:
        assert verify_certificates(sys, sol).ok


def test_det_factored_once_per_solve(monkeypatch, example1_path):
    """Stage a of both procedures reads the shift classes of det A that
    DDSystem.det_standard computed: one solve of example1, and DP2 on the
    same system after it, factor det A once, and nothing goes through
    fields.factor_in_x."""
    import ddsolve.difftools as difftools
    import ddsolve.fields as fields

    factored = []
    shift_classes = difftools.shift_classes

    def spy(polys):
        factored.append(list(polys))
        return shift_classes(polys)

    def forbidden(*args, **kwargs):
        raise AssertionError("factor_in_x called")

    monkeypatch.setattr(difftools, "shift_classes", spy)
    monkeypatch.setattr(fields, "factor_in_x", forbidden)
    system = read_system(example1_path)
    assert solve_liouvillian(system).kind == "Solved"
    decision_procedure_2(system)
    det, standard = system.det_K, system.det_standard.standard_part
    assert [det.numer, det.denom] in factored
    assert sum(polys in ([det.numer, det.denom],
                         [standard.numer, standard.denom])
               for polys in factored) == 1


def test_gauge_delta_part_matches_reference(monkeypatch):
    """B-bar from K-forms is srepr-identical to the Expr reference on
    every gauge the decision procedures build for the bundled systems and
    for the gauged example1 of test_dp1_solves_gauged_example1."""
    import ddsolve.procedures as procedures

    ex1 = read_system(str(SYSTEMS / "example1.json"))
    G = sp.Matrix([[1, t - 2 * x + 1], [0, 1]])
    gauged = DDSystem(2, mat_reduce(mat_inv(mat_shift(G)) * ex1.A * G),
                      mat_reduce(mat_inv(G) * (ex1.B * G - mat_delta(G))),
                      assume_irreducible=True)
    systems = {name: read_system(str(SYSTEMS / f"{name}.json"))
               for name in ("example1", "example2", "hermite")}
    systems["gauged example1"] = gauged
    calls = []
    orig = procedures._gauge_delta_part

    def spy(G, B, tower):
        calls.append((name, G, B, tower, orig(G, B, tower)))
        return calls[-1][-1]

    monkeypatch.setattr(procedures, "_gauge_delta_part", spy)
    for name, system in systems.items():
        if decision_procedure_1(system).kind != "Solved":
            decision_procedure_2(system)
    assert {c[0] for c in calls} == {"example1", "example2",
                                     "gauged example1"}
    for _, G, B, tower, Bbar in calls:
        want = reference_gauge_delta_part(dm_to_matrix(G, tower),
                                          dm_to_matrix(B, tower), tower)
        assert sp.srepr(dm_to_matrix(Bbar, tower)) == sp.srepr(want)


def test_unsupported_subroutine_ends_dp2_inconclusive(monkeypatch):
    """A subroutine outside its scope ends DP2 as Unsupported at the
    current stage, and the verdict is Inconclusive."""
    import ddsolve.procedures as procedures

    def unsupported(*args):
        raise UnsupportedCase("planted")

    monkeypatch.setattr(procedures, "system_hypergeometric", unsupported)
    sys = DDSystem(2, HERMITE_A, HERMITE_B, assume_irreducible=True)
    out = decision_procedure_2(sys)
    assert (out.kind, out.provenance, out.stage, out.reason) == \
        ("Unsupported", "DP2", "c", "planted")
    out = solve_liouvillian(sys)
    assert (out.kind, out.stage) == ("Inconclusive", "c")


def test_quadratic_ratio_ends_dp2_inconclusive(monkeypatch):
    """A hypergeometric ratio with a quadratic constant ends DP2 as
    Unsupported at stage c, naming the ratio, not as an internal error."""
    import ddsolve.closedform as closedform

    K = sp.QQ.algebraic_field(sp.sqrt(2))
    monkeypatch.setattr(closedform, "hyper_ratios", lambda ps, m: [
        (K, [K.unit, K.zero], [K.one])])
    sys = DDSystem(2, HERMITE_A, HERMITE_B, assume_irreducible=True)
    out = decision_procedure_2(sys)
    assert (out.kind, out.provenance, out.stage) == ("Unsupported", "DP2", "c")
    assert "sqrt(2)*x" in out.reason
    out = solve_liouvillian(sys)
    assert (out.kind, out.stage) == ("Inconclusive", "c")


def test_solve_requires_valid_system():
    A = sp.Matrix([[x, 0], [0, 1]])
    B = sp.Matrix([[t, 1], [0, t]])
    with pytest.raises(ValueError):
        solve_liouvillian(DDSystem(2, A, B))


def test_unasserted_irreducibility_gives_no_negative_verdict(tmp_path):
    """A = [[x, 1], [0, 1]], B = 0 is reducible, with the liouvillian basis
    Gamma(x) (1, 0) and Gamma(x) (sum_{k<x} 1/Gamma(k+1), 1).  Both
    procedures exclude a basis; with irreducibility not asserted that is
    no proof, so the verdict is Inconclusive (exit 2) and names the
    missing assumption."""
    system = DDSystem(2, sp.Matrix([[x, 1], [0, 1]]), sp.zeros(2, 2))
    out = solve_liouvillian(system)
    assert (out.kind, out.provenance) == ("Inconclusive", "DP1+DP2")
    assert "irreducibility over Q(x, t) is not asserted" in out.reason
    path = tmp_path / "reducible.json"
    write_system(str(path), system)
    assert cli_main(["solve", str(path)]) == 2


def test_dp1_d2_without_hyperexponential_basis_is_inconclusive():
    """A = I and B the companion matrix of y'' + y'/(2t) - y/t = 0, whose
    solutions exp(+-2 sqrt(t)) are hyperexponential only over theta^2 = t.
    The d2 search over Q(t) finds no basis, which proves nothing: DP1 ends
    Unsupported at d2 and the verdict is Inconclusive, although
    irreducibility is asserted."""
    B = sp.Matrix([[0, 1], [1 / t, -1 / (2 * t)]])
    system = DDSystem(2, sp.eye(2), B, assume_irreducible=True)
    out = solve_liouvillian(system)
    assert (out.kind, out.provenance, out.stage) == \
        ("Inconclusive", "DP1", "d2")
    assert out.report["dp1"]["kind"] == "Unsupported"
    assert "dp2" in out.report


Y = sp.Symbol("Y")


def _companion(P):
    return sp.Matrix.companion(sp.Poly(P, Y))


RESIDUAL_HYPEREXPONENTIAL = [
    (sp.Matrix([[0, 1], [2, 1]]), None, [2, -1]),
    (sp.Matrix([[0, 2], [1, 0]]), theta**2 - 2, [theta, -theta]),
    (sp.diag(1 / t, 2), None, [1 / t, 2]),
    # B = G D G^-1, G = [[1, 1], [0, 1]]: two solutions of one certificate
    (sp.Matrix([[1 / t, -1 / t], [0, 0]]), None, [0, 0]),
    (sp.Matrix([[2 / t, -1 / (t + 1) - 2 / t], [0, -1 / (t + 1)]]), None,
     [-1 / (t + 1), -1 / (t + 1)]),
]


@pytest.mark.parametrize("B, minpoly, delta_ratios", RESIDUAL_HYPEREXPONENTIAL)
def test_dp1_d2_solves_residual_hyperexponential_systems(B, minpoly,
                                                         delta_ratios):
    """A = x I: all leading eigenvalues are equal, the gauge is I and the
    residual system is delta(Y) = B Y.  DP1 solves it at d2 with the
    pinned delta-ratios, certificates verified."""
    system = DDSystem(2, x * sp.eye(2), B, assume_irreducible=True)
    out = solve_liouvillian(system)
    assert (out.kind, out.provenance) == ("Solved", "DP1")
    assert out.report["dp1"]["stages"][-1] == "d2"
    assert [s.tower.minpoly for s in out.solutions] == [minpoly] * 2
    for sol, ratio in zip(out.solutions, delta_ratios):
        assert teq(sol.cert.delta_ratio, ratio, sol.tower)
        assert verify_certificates(system, sol).ok


def test_dp1_d2_double_pole_is_inconclusive():
    """A = I, B = [[1/t^2, 1/t - 1], [0, 0]]: the residual system has a
    double pole at t = 0, outside the hyperexponential search, so DP1
    ends Unsupported at d2 and the verdict is Inconclusive."""
    B = sp.Matrix([[1 / t**2, 1 / t - 1], [0, 0]])
    out = solve_liouvillian(DDSystem(2, sp.eye(2), B,
                                     assume_irreducible=True))
    assert (out.kind, out.provenance, out.stage) == \
        ("Inconclusive", "DP1", "d2")
    assert out.report["dp1"]["reason"] == \
        "finite pole not simple and rational"


def test_cubic_towers_end_in_verdicts():
    """Towers of degree 3 over Q: theta^3 - 3 theta + 1 is normal, so its
    conjugates lie in the tower and DP1 d1 solves over it; theta^3 - 2 is
    not, so d1 is Unsupported (DP2 then solves) and d2 finds too few
    candidates (Inconclusive)."""
    minpoly = theta**3 - 3 * theta + 1
    system = DDSystem(3, _companion(Y**3 - 3 * Y + 1), sp.zeros(3, 3),
                      assume_irreducible=True)
    out = solve_liouvillian(system)
    assert (out.kind, out.provenance) == ("Solved", "DP1")
    assert out.report["dp1"]["stages"][-1] == "d1"
    assert all(s.tower.minpoly == minpoly for s in out.solutions)
    for sol in out.solutions:
        assert verify_certificates(system, sol).ok
    out = solve_liouvillian(DDSystem(3, _companion(Y**3 - 2), sp.zeros(3, 3),
                                     assume_irreducible=True))
    assert (out.kind, out.provenance) == ("Solved", "DP2")
    assert (out.report["dp1"]["kind"], out.report["dp1"]["stages"][-1]) == \
        ("Unsupported", "d1")
    out = solve_liouvillian(DDSystem(3, x * sp.eye(3), _companion(Y**3 - 2),
                                     assume_irreducible=True))
    assert (out.kind, out.provenance, out.stage) == \
        ("Inconclusive", "DP1", "d2")


def test_unsupported_dp1_does_not_stop_dp2(monkeypatch, example2_path):
    """An Unsupported DP1 proves nothing, so DP2 still runs: with DP1
    planted Unsupported, example2 is Solved by DP2, certificates
    verified."""
    import ddsolve.procedures as procedures

    monkeypatch.setattr(procedures, "decision_procedure_1",
                        lambda sys: procedures.Outcome(
                            "Unsupported", "DP1", "d2", "planted"))
    system = read_system(example2_path)
    out = solve_liouvillian(system)
    assert (out.kind, out.provenance) == ("Solved", "DP2")
    assert out.report["dp1"]["kind"] == "Unsupported"
    assert out.solutions
    for sol in out.solutions:
        assert verify_certificates(system, sol).ok


# ---------------------------------------------------------------------------
# verification of Solved outcomes

_PLANTED_BAD_SOLVE = """
import sys
import sympy as sp
from ddsolve.fields import t
from ddsolve.procedures import DDSystem, Outcome, _verify_solved
from ddsolve.sequences import HypCert, VerificationError
from helpers import solution

assert sys.flags.optimize, "run under python -O"
# sigma(Y) = 2 Y, delta(Y) = Y / t: the sigma-ratio 3 is wrong
system = DDSystem(1, sp.Matrix([[2]]), sp.Matrix([[1 / t]]))
bad = solution(sp.Matrix([1]), HypCert(sp.Integer(3), 1, 1 / t))
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
        [str(ROOT / "src"), str(ROOT / "tests")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
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
from ddsolve.fields import dm_from_matrix
from ddsolve.sequences import VerificationError

assert sys.flags.optimize, "run under python -O"
# sigma(G) diag(2, 3) = A G holds for G = 1, not for the swap planted here
ratsol._invertible_selection = lambda columns, tower: dm_from_matrix(
    sp.Matrix([[0, 1], [1, 0]]))
try:
    ratsol.gauge_from_ratios(dm_from_matrix(sp.diag(2, 3)),
                             dm_from_matrix(sp.diag(sp.Rational(1, 2),
                                                    sp.Rational(1, 3))),
                             dm_from_matrix(sp.diag(2, 3)), 1)
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


def test_first_verification_point_skips_every_pole():
    A = sp.eye(2)
    B = sp.diag(1 / ((t - 1) * (t - 2) * (t - 3) * (t - 5) * (t - 7)), 0)
    assert _first_verification_point(DDSystem(2, A, B)) == 4
    B = sp.diag(1 / sp.prod([t - k for k in range(1, 26)]), 0)
    with pytest.raises(VerificationError):
        _first_verification_point(DDSystem(2, A, B))


@pytest.mark.parametrize("name", ["example1", "example2", "hermite"])
def test_first_verification_point_of_bundled_systems(name):
    system = read_system(str(SYSTEMS / f"{name}.json"))
    assert _first_verification_point(system) == 1


def test_solve_reports_stage_timings(solved_example2):
    """perf_counter spans for both procedures, the verification and the
    lift; solve --json leaves them out (the goldens pin that)."""
    _, out = solved_example2
    timings = out.report["timings"]
    assert {"dp1", "dp2", "verify", "lift"} <= set(timings)
    assert all(v >= 0 for v in timings.values())


def test_verification_point_respects_solution_tower(tmp_path):
    """DP1 solves this system over theta^2 = t, which is reducible at
    t = 1: the numeric window runs at t = 2."""
    path = tmp_path / "sqrt_t.json"
    path.write_text(json.dumps({
        "A": [["0", "t"], ["1", "0"]],
        "B": [["(x+1)/(2*t)", "0"], ["0", "x/(2*t)"]], "n": 2}))
    out = solve_liouvillian(read_system(str(path)))
    assert out.kind == "Solved" and out.provenance == "DP1"
    assert out.solutions[0].tower.minpoly == theta**2 - t
    assert out.report["verification"] == "30-term numeric window at t = 2"


def test_example2_forms_each_derived_object_once(example2_path,
                                                 monkeypatch):
    """One solve of example2 inverts its sigma^3-cocycle once (up to a
    factor in K: the rational solves of sigma^3(W) = (A_3/r) W read
    (A_3/r)^-1 as r A_3^-1), computes det A once (validation and the
    lifts share DDSystem.det_K) and finds every integer root with no
    polynomial factoring."""
    import ddsolve.fields as fields
    from sympy.polys import factortools

    system = read_system(example2_path)
    A, A3 = system.A_K, system.cocycle(3)
    inverted, dets, factored = [], [], []
    inv, det, factor = (DomainMatrix.inv, DomainMatrix.det,
                        factortools.dup_factor_list)

    def inv_spy(D):
        inverted.append(D)
        return inv(D)

    def det_spy(D):
        dets.append(D)
        return det(D)

    def factor_spy(*args, **kwargs):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code is fields.common_integer_roots.__code__:
                factored.append(args)
                break
            frame = frame.f_back
        return factor(*args, **kwargs)

    def multiple_of(D, M):
        """D = c M for some c in K."""
        if D.shape != M.shape or D.domain != M.domain:
            return False
        k, a = next((k, a) for k, a in enumerate(M.to_list_flat()) if a)
        c = D.to_list_flat()[k] / a
        return D.to_list_flat() == M.mul(c).to_list_flat()

    monkeypatch.setattr(DomainMatrix, "inv", inv_spy)
    monkeypatch.setattr(DomainMatrix, "det", det_spy)
    monkeypatch.setattr(factortools, "dup_factor_list", factor_spy)
    if hasattr(fields, "dup_factor_list"):
        monkeypatch.setattr(fields, "dup_factor_list", factor_spy)
    out = solve_liouvillian(system)
    monkeypatch.undo()
    assert out.kind == "Solved" and out.provenance == "DP2"
    assert sum(multiple_of(D, A3) for D in inverted) == 1
    assert sum(D.shape == A.shape
               and D.to_list_flat() == A.to_list_flat() for D in dets) == 1
    assert not factored


# ---------------------------------------------------------------------------
# no expression enters K inside a solve

def _read(name):
    return lambda: read_system(str(SYSTEMS / f"{name}.json"))


@pytest.mark.parametrize("make, want", [
    (_read("example1"), ("Solved", "DP1")),
    (_read("example2"), ("Solved", "DP2")),
    (_read("hermite"), ("NoLiouvillianSolutions", "DP1+DP2")),
    # DP1 d1 with split eigenvalues x and t*x
    (lambda: DDSystem(2, sp.diag(x, t * x), sp.diag(1, x / t)),
     ("Solved", "DP1")),
] + [(lambda B=B: DDSystem(2, x * sp.eye(2), B, assume_irreducible=True),
      ("Solved", "DP1")) for B, _, _ in RESIDUAL_HYPEREXPONENTIAL],
    ids=["example1", "example2", "hermite", "dp1-d1-split"]
    + [f"dp1-d2-{k}" for k in range(len(RESIDUAL_HYPEREXPONENTIAL))])
def test_solve_converts_no_expression_into_K(make, want, monkeypatch):
    """Once the system is read and validated, the procedures, the
    certificate check, the window and the lift work on K-forms: the
    Expr -> K conversions of fields raise, and the verdict stands."""
    system = make()
    system.validate()

    def refuse(*args):
        raise AssertionError(f"Expr -> K conversion inside a solve: {args}")

    monkeypatch.setattr(fields, "_field_element", refuse)
    monkeypatch.setattr(fields, "_tower_element", refuse)
    out = solve_liouvillian(system)
    assert (out.kind, out.provenance) == want
    if out.kind == "Solved":
        assert out.report["verification"].startswith("30-term numeric window")
        assert all(verify_certificates(system, sol).ok
                   for sol in out.solutions)
