import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ddsolve.fields import (TRIVIAL_TOWER, make_tower, mat_inv, mat_reduce,
                            mat_shift, shift, t, teq, theta, treduce, x)
from ddsolve.files import read_system
from ddsolve.parsing import parse_ratfunc
from ddsolve.sequences import (FuncSeq, HypCert, LiouvilleSolution, PoleError,
                               PointEvaluator, SeqVec, VerificationError,
                               first_safe_index, interlace,
                               lift_sigma_d_to_sigma, section,
                               seq_from_recurrence, verify_certificates,
                               verify_numeric_window)


class _Sys:
    def __init__(self, A, B):
        self.A = A
        self.B = B


# ---------------------------------------------------------------------------
# recurrence-generated sequences

def test_seq_from_recurrence_window():
    # companion matrix of the weighted-Hermite recurrence
    # W(j+1) = A(j) W(j); the first step evaluates A at x = 0
    A = sp.Matrix([[0, 1], [-2 * x, 2 * t]])
    W = seq_from_recurrence(A, 0, sp.Matrix([1, 2 * t]))
    assert list(W.value(0)) == [1, 2 * t]
    assert [sp.expand(e) for e in W.value(1)] == [2 * t, 4 * t**2]
    assert [sp.expand(e) for e in W.value(2)] == \
        [4 * t**2, sp.expand(8 * t**3 - 4 * t)]


def test_seq_value_below_start_is_zero():
    A = sp.Matrix([[2]])
    W = seq_from_recurrence(A, 3, sp.Matrix([5]))
    assert W.value(2) == sp.Matrix([0])
    assert W.value(3) == sp.Matrix([5])
    assert W.value(5) == sp.Matrix([20])


def test_seq_pole_detection():
    A = sp.Matrix([[1 / (x - 4)]])
    W = seq_from_recurrence(A, 3, sp.Matrix([1]))
    with pytest.raises(PoleError) as err:
        W.value(5)
    assert err.value.index == 4


def test_seq_specialized_tower_evaluation():
    A = sp.Matrix([[t]])
    W = seq_from_recurrence(A, 0, sp.Matrix([1]), t0=sp.Rational(3))
    assert W.value(2) == sp.Matrix([9])


# ---------------------------------------------------------------------------
# interlace / section round trips for d <= 4

def test_interlace_section_roundtrip():
    rng = random.Random(41)
    for d in (1, 2, 3, 4):
        seqs = []
        for i in range(d):
            vals = [sp.Integer(rng.randint(-9, 9)) for _ in range(12)]
            seqs.append(FuncSeq(lambda j, vals=vals: vals[j]
                                if 0 <= j < len(vals) else 0))
        b = interlace(seqs)
        # b(d n + i) = seqs[i](n)
        for i in range(d):
            for n in range(10):
                assert b.value(d * n + i) == seqs[i].value(n)
        # sections of b pick out residue classes and sum back to b
        secs = [section(b, d, i) for i in range(d)]
        for j in range(4 * d):
            total = sum(s.value(j) for s in secs)
            assert total == b.value(j)
            assert secs[j % d].value(j) == b.value(j)


def test_section_bounds():
    with pytest.raises(ValueError):
        section(FuncSeq(lambda j: j), 3, 3)


# ---------------------------------------------------------------------------
# lift: recurrence vs section-sum (the constructor cross-checks 30 terms)

def test_lift_step_two_cross_check_30_terms():
    # sigma^2-system: sigma^2(y) = (x+2)(x+3)/((x)(x+1)) y with rational
    # solution V = x(x+1); plant it in a 1-dim sigma-system A = x+1... use
    # A with A_2 = ratio/V-shape: simplest A(j) = j+2 gives W(j) = (j+1)!
    A = sp.Matrix([[x + 2]])
    B = sp.Matrix([[0]])
    V = sp.Matrix([1])
    # sigma^2-ratio of W: W(j+2)/W(j) = (j+3)(j+2)
    W = lift_sigma_d_to_sigma(V, sp.expand((x + 3) * (x + 2)), 2, A, B,
                              N=1, check_terms=30)
    assert W.value(1) == sp.Matrix([1])
    assert W.value(3) == sp.Matrix([4 * 3])


def test_lift_cross_check_failure_is_loud():
    A = sp.Matrix([[x + 2]])
    B = sp.Matrix([[0]])
    V = sp.Matrix([1])
    with pytest.raises(AssertionError):
        lift_sigma_d_to_sigma(V, sp.Integer(7), 2, A, B, N=1, check_terms=10)


def test_lift_over_tower_cross_checks():
    # A(j+1) A(j) = theta * diag(j + 1, j + 2), so V = (1, 0) solves the
    # sigma^2-system with ratio theta*(x + 1) over the example1 tower
    A = sp.Matrix([[0, theta], [x + 1, 0]])
    B = sp.zeros(2, 2)
    V = sp.Matrix([1, 0])
    W = lift_sigma_d_to_sigma(V, theta * (x + 1), 2, A, B, N=1,
                              tower=EX1_TOWER, check_terms=12)
    assert W.value(3) == sp.Matrix([2 * theta, 0])
    with pytest.raises(VerificationError):
        lift_sigma_d_to_sigma(V, 2 * theta * (x + 1), 2, A, B, N=1,
                              tower=EX1_TOWER, check_terms=12)


def test_first_safe_index_skips_integer_poles():
    A = sp.Matrix([[1 / (x - 3)]])
    B = sp.Matrix([[0]])
    V = sp.Matrix([1])
    assert first_safe_index(A, B, V) >= 4


@pytest.mark.parametrize("A, B, V, want", [
    (sp.diag(x - 7, 1), sp.zeros(2, 2), sp.Matrix([1, 0]), 8),
    (sp.eye(2), sp.diag(1 / ((x - 5) * t), 0), sp.Matrix([1, 0]), 6),
    (sp.eye(2), sp.zeros(2, 2), sp.Matrix([1 / (t * x - 9 * t), 0]), 10),
    (sp.diag(x - t, 1), sp.zeros(2, 2), sp.Matrix([1, 0]), 1),
])
def test_first_safe_index_exact(A, B, V, want):
    """Zeros of det A, poles of B and V; x = t is no integer root."""
    assert first_safe_index(A, B, V) == want


def test_first_safe_index_skips_zero_start_vector():
    A = sp.Matrix([[2]])
    B = sp.Matrix([[0]])
    V = sp.Matrix([x - 5])
    N = first_safe_index(A, B, V)
    assert treduce(V[0].subs(x, N)) != 0


# ---------------------------------------------------------------------------
# certificate verification

def _toy_solved_system():
    # sigma(Y) = 2 Y, delta(Y) = (1/t) Y has solution W = 1 with
    # sigma-ratio 2 and delta-ratio 1/t
    A = sp.Matrix([[2]])
    B = sp.Matrix([[1 / t]])
    sol = LiouvilleSolution(
        kind="Hypergeometric", W=sp.Matrix([1]),
        cert=HypCert(sigma_ratio=sp.Integer(2), sigma_step=1,
                     delta_ratio=1 / t))
    return _Sys(A, B), sol


def test_verify_certificates_pass_and_fail():
    system, sol = _toy_solved_system()
    assert verify_certificates(system, sol).ok
    bad = LiouvilleSolution(
        kind="Hypergeometric", W=sp.Matrix([1]),
        cert=HypCert(sigma_ratio=sp.Integer(3), sigma_step=1,
                     delta_ratio=1 / t))
    res = verify_certificates(system, bad)
    assert not res.ok and res.failures


def test_verify_numeric_window_pass():
    system, sol = _toy_solved_system()
    assert verify_numeric_window(system, sol, sp.Rational(2), terms=10).ok


def test_verify_numeric_window_catches_mismatch():
    system, sol = _toy_solved_system()
    bad = LiouvilleSolution(
        kind="Hypergeometric", W=sp.Matrix([x]),
        cert=HypCert(sigma_ratio=sp.Integer(2), sigma_step=1,
                     delta_ratio=1 / t))
    assert not verify_numeric_window(system, bad, sp.Rational(2), terms=10).ok


# ---------------------------------------------------------------------------
# point evaluation against the per-index SymPy path

EX1_TOWER = make_tower(theta**2 - t**2 - 1)
# t0 = 0 is left out: theta^2 = t0^2 + 1 must stay irreducible over Q
EX1_T0S = [sp.Integer(1), sp.Integer(2), sp.Integer(-3), sp.Rational(1, 2)]


@st.composite
def _entries(draw):
    """(tower, t0, e, j): e a cancelled quotient of small polynomials in x,
    t (and theta over the example1 tower), t0 None for no specialization."""
    tower = draw(st.sampled_from([TRIVIAL_TOWER, EX1_TOWER]))
    powers = [(i, k, l) for i in range(3) for k in range(2)
              for l in range(1 if tower.trivial else 2)]

    def poly():
        cs = draw(st.lists(st.integers(-3, 3), min_size=len(powers),
                           max_size=len(powers)))
        return sum(c * x**i * t**k * theta**l
                   for c, (i, k, l) in zip(cs, powers))

    num, den = poly(), poly()
    if treduce(den, tower) == 0:
        den = x + 1
    t0 = draw(st.sampled_from([None] + EX1_T0S))
    j = draw(st.integers(-3, 6))
    # plant a pole at x = j, or one at t = t0 for every x
    den *= draw(st.sampled_from([1, x - j] + ([] if t0 is None else [t - t0])))
    return tower, t0, sp.cancel(num / den), j


@settings(max_examples=60, deadline=None)
@given(_entries())
def test_point_evaluator_matches_sympy_reference(case):
    tower, t0, e, j = case
    sub = {x: j} if t0 is None else {x: j, t: t0}
    etower = (tower if t0 is None or tower.trivial
              else make_tower(sp.expand(tower.minpoly.subs(t, t0))))
    pts = PointEvaluator(tower, t0)
    compiled = pts.compile([e])
    den = sp.fraction(sp.together(sp.cancel(e)))[1]
    if treduce(den.subs(sub), etower) == 0:
        with pytest.raises(PoleError):
            pts.at(compiled, j)
        return
    (got,) = pts.at(compiled, j)
    want = treduce(e.subs(sub), etower)
    assert len(got) <= tower.degree
    assert treduce(pts.to_sympy(got) - want, etower) == 0, (e, j, t0)


def test_numeric_window_reports_doubled_example1_ratio(example1_path):
    system = read_system(example1_path)
    W = sp.Matrix([parse_ratfunc("-1*(t-theta)/(x-t^2)", EX1_TOWER),
                   parse_ratfunc("(x-t*theta)/(x-t^2)", EX1_TOWER)])
    ratio = parse_ratfunc("(x^2*theta+theta)", EX1_TOWER)
    delta_ratio = parse_ratfunc("(x*t+t^2*theta+t^2+theta+1)/(t^2+1)",
                                EX1_TOWER)

    def solution(r):
        return LiouvilleSolution(kind="Hypergeometric", W=W,
                                 cert=HypCert(r, 1, delta_ratio),
                                 tower=EX1_TOWER)

    assert verify_numeric_window(system, solution(ratio), sp.Integer(1)).ok
    res = verify_numeric_window(system, solution(2 * ratio), sp.Integer(1))
    assert res.failures == ["solution: sigma relation fails at x=3, t=1"]
