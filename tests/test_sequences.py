import random
from collections import Counter

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ddsolve.fields import (TRIVIAL_TOWER, dm_from_matrix, make_tower, mat_inv,
                            t, theta, treduce, x)
from ddsolve.files import read_system
from helpers import (mat_reduce, mat_shift, reference_check_pair,
                     reference_lift, shift, solution)
from ddsolve.parsing import parse_ratfunc
from ddsolve.procedures import DDSystem, solve_liouvillian
from ddsolve.sequences import (FuncSeq, HypCert, PoleError, PointEvaluator,
                               SeqVec, VerificationError,
                               first_regular_index, first_safe_index,
                               interlace,
                               lift_sigma_d_to_sigma, section,
                               seq_from_recurrence, verify_certificates,
                               verify_numeric_window)


def kform(M, tower=TRIVIAL_TOWER):
    """The K-form over the tower of a matrix, or of [M] for a scalar M."""
    if not isinstance(M, sp.MatrixBase):
        M = sp.Matrix([M])
    return dm_from_matrix(M, tower)


def lift(V, ratio, d, A, B, tower=TRIVIAL_TOWER, **kwargs):
    """lift_sigma_d_to_sigma on the K-forms of Expr arguments."""
    return lift_sigma_d_to_sigma(*(kform(M, tower) for M in (V, ratio)), d,
                                 *(kform(M, tower) for M in (A, B)),
                                 tower=tower, **kwargs)


def seq(A, N, V_N, t0=None):
    """seq_from_recurrence on the K-forms of Expr arguments."""
    return seq_from_recurrence(kform(A), N, kform(V_N), t0)


# ---------------------------------------------------------------------------
# recurrence-generated sequences

def test_seq_from_recurrence_window():
    # companion matrix of the weighted-Hermite recurrence
    # W(j+1) = A(j) W(j); the first step evaluates A at x = 0
    A = sp.Matrix([[0, 1], [-2 * x, 2 * t]])
    W = seq(A, 0, sp.Matrix([1, 2 * t]))
    assert list(W.value(0)) == [1, 2 * t]
    assert [sp.expand(e) for e in W.value(1)] == [2 * t, 4 * t**2]
    assert [sp.expand(e) for e in W.value(2)] == \
        [4 * t**2, sp.expand(8 * t**3 - 4 * t)]


def test_seq_value_below_start_is_zero():
    A = sp.Matrix([[2]])
    W = seq(A, 3, sp.Matrix([5]))
    assert W.value(2) == sp.Matrix([0])
    assert W.value(3) == sp.Matrix([5])
    assert W.value(5) == sp.Matrix([20])


def test_seq_pole_detection():
    A = sp.Matrix([[1 / (x - 4)]])
    W = seq(A, 3, sp.Matrix([1]))
    with pytest.raises(PoleError) as err:
        W.value(5)
    assert err.value.index == 4


def test_seq_specialized_tower_evaluation():
    A = sp.Matrix([[t]])
    W = seq(A, 0, sp.Matrix([1]), t0=sp.Rational(3))
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
    W = lift(V, sp.expand((x + 3) * (x + 2)), 2, A, B, N=1, check_terms=30)
    assert W.value(1) == sp.Matrix([1])
    assert W.value(3) == sp.Matrix([4 * 3])


def test_lift_cross_check_failure_is_loud():
    A = sp.Matrix([[x + 2]])
    B = sp.Matrix([[0]])
    V = sp.Matrix([1])
    with pytest.raises(AssertionError):
        lift(V, sp.Integer(7), 2, A, B, N=1, check_terms=10)


def test_lift_over_tower_cross_checks():
    # A(j+1) A(j) = theta * diag(j + 1, j + 2), so V = (1, 0) solves the
    # sigma^2-system with ratio theta*(x + 1) over the example1 tower
    A = sp.Matrix([[0, theta], [x + 1, 0]])
    B = sp.zeros(2, 2)
    V = sp.Matrix([1, 0])
    W = lift(V, theta * (x + 1), 2, A, B, N=1, tower=EX1_TOWER,
             check_terms=12)
    assert W.value(3) == sp.Matrix([2 * theta, 0])
    with pytest.raises(VerificationError):
        lift(V, 2 * theta * (x + 1), 2, A, B, N=1, tower=EX1_TOWER,
             check_terms=12)


def test_lifts_of_example2_evaluate_A_once_per_index(example2_path,
                                                     monkeypatch):
    """The three lifts of one solve share A(j) between the recurrence and
    the section-sum cross-check, and with each other."""
    system = read_system(example2_path)
    calls = []
    at = PointEvaluator.at

    def spy(self, compiled, j):
        calls.append((compiled, j))
        return at(self, compiled, j)

    monkeypatch.setattr(PointEvaluator, "at", spy)
    out = solve_liouvillian(system)
    monkeypatch.undo()
    lifts = out.report["lifts"]
    steps = lifts[0].steps
    assert len(lifts) == 3 and all(W.steps is steps for W in lifts)
    assert steps.compiled == PointEvaluator().compile(system.A_K)
    per_index = Counter(j for c, j in calls if c is steps.compiled)
    assert set(per_index.values()) == {1}
    assert all(j in per_index for W in lifts for j in range(W.N, W.N + 29))
    # the cross-check keeps its strength: a doubled ratio is caught
    _, W, cert = out.solutions[0].components[0]
    with pytest.raises(VerificationError):
        lift(W, 2 * cert.sigma_ratio, system.n, system.A, system.B)


def test_lift_and_window_run_without_cancel_or_together(solved_example2,
                                                       monkeypatch):
    """The lift and the numeric window compile from K-forms: on a solved
    example2 neither runs sp.cancel or sp.together."""
    system, out = solved_example2

    def boom(*args, **kwargs):
        raise AssertionError("SymPy simplification called")

    monkeypatch.setattr(sp, "cancel", boom)
    monkeypatch.setattr(sp, "together", boom)
    for sol in out.solutions:
        part = sol.parts[0]
        lift_sigma_d_to_sigma(part.W, part.r, system.n, system.A_K,
                              system.B_K)
        assert verify_numeric_window(system, sol, sp.Integer(1)).ok


def test_verification_and_lift_share_one_k_form_per_part(solved_example2,
                                                         monkeypatch):
    """Verifying and lifting example2's three solutions converts nothing
    to K: the solutions hold the K-forms W, r and c of their parts, and
    the certificate check, the numeric window and the lift all read those
    same K-forms."""
    import dataclasses
    import sys

    import ddsolve.fields as fields
    import ddsolve.procedures as procedures
    import ddsolve.sequences as sequences

    system, solved = solved_example2
    out = procedures.Outcome("Solved", "DP2", solutions=[
        dataclasses.replace(sol) for sol in solved.solutions])
    log = {"convert": [], "check": [], "compile": [], "lift": []}

    def spy(key, fn):
        def wrapper(*args, **kwargs):
            log[key].append(args)
            return fn(*args, **kwargs)
        return wrapper

    orig = fields.dm_from_matrix
    for name, mod in list(sys.modules.items()):
        if name.startswith("ddsolve") and \
                getattr(mod, "dm_from_matrix", None) is orig:
            monkeypatch.setattr(mod, "dm_from_matrix", spy("convert", orig))
    monkeypatch.setattr(sequences, "_check_pair",
                        spy("check", sequences._check_pair))
    monkeypatch.setattr(PointEvaluator, "compile",
                        spy("compile", PointEvaluator.compile))
    procedures._verify_solved(system, out)
    window = [args[1] for args in log["compile"]]
    monkeypatch.setattr(procedures, "lift_sigma_d_to_sigma",
                        spy("lift", procedures.lift_sigma_d_to_sigma))
    procedures._lifts(system, out)

    parts = [part for sol in out.solutions for part in sol.parts]
    assert len(parts) == 3
    assert log["convert"] == []
    assert all(args[1] is part for args, part in zip(log["check"], parts))
    assert len(log["check"]) == 3
    for part, args in zip(parts, log["lift"]):
        assert any(D is part.W for D in window)
        assert any(D is part.r for D in window)
        assert args[0] is part.W and args[1] is part.r
    assert len(log["lift"]) == 3


def _ratfunc(draw, tower):
    """A nonzero (a + b x + c t) / den, times theta over a tower."""
    a, b, c = draw(st.tuples(*[st.integers(-2, 2)] * 3).filter(any))
    den = draw(st.sampled_from([1, x + 1, x - 2, t + 1, x + t]))
    power = 0 if tower.trivial else draw(st.integers(0, 1))
    return (a + b * x + c * t) / den * theta**power


@st.composite
def _planted_lifts(draw):
    """(d, tower, A, V, ratio): A = sigma(G) C G^-1 with C the weighted
    cyclic shift C e_i = c_i e_{i+1 mod d} and G = 1 + g E_kl unimodular,
    so V = G e_1 solves the sigma^d-system with ratio
    prod_i c_i(x + i)."""
    d = draw(st.sampled_from([2, 3]))
    tower = draw(st.sampled_from([TRIVIAL_TOWER, EX1_TOWER]))
    cs = [_ratfunc(draw, tower) for _ in range(d)]
    C = sp.zeros(d, d)
    for i, c in enumerate(cs):
        C[(i + 1) % d, i] = c
    k, l = draw(st.permutations(range(d)))[:2]
    g = sum(draw(st.integers(-2, 2)) * m for m in (1, x, t))
    E = sp.zeros(d, d)
    E[k, l] = g
    G = sp.eye(d) + E
    A = mat_reduce(mat_shift(G) * C * (sp.eye(d) - E), tower)
    ratio = treduce(sp.prod([shift(c, i) for i, c in enumerate(cs)]), tower)
    return d, tower, A, G[:, 0], ratio


@settings(max_examples=20, deadline=None)
@given(_planted_lifts())
def test_fraction_free_lift_matches_reference(case):
    """On planted sigma^d systems the fraction-free lift gives the W(j) of
    the reference Q(t) lift and the same cross-check verdict, for the
    planted ratio (which passes) and the doubled one (which raises)."""
    d, tower, A, V, ratio = case
    B = sp.zeros(d, d)
    # the poles of A and of the ratio and the integer zeros of det A lie
    # in [-2, 2], and V has first entry 1: every index from 4 on is safe
    N, terms = 4, 12
    verdicts = []
    for r in (ratio, treduce(2 * ratio, tower)):
        try:
            want = reference_lift(V, r, d, A, N, tower, terms)
        except VerificationError as err:
            want = str(err)
        try:
            W = lift(V, r, d, A, B, N=N, tower=tower, check_terms=terms)
            got = [W.value(j) for j in range(N, N + terms)]
        except VerificationError as err:
            got = str(err)
        assert got == want
        verdicts.append(isinstance(got, list))
    assert verdicts == [True, False]


def test_fraction_free_lift_matches_reference_past_a_gcd_failure():
    """A case of the property above on which the reference's products of
    shifts once raised SymPy's HeuristicGCDFailed; K's gcd now falls back
    to a PRS gcd, for the reference too."""
    A = sp.Matrix([
        [(-2 * t**2 + t * x + t - x + 1) / (t + x), (1 - t) / (t + x)],
        [(4 * t**3 - 4 * t**2 * x - 2 * t**2 + t * x**2 + 3 * t * x - t
          - x**2 + x) / (t + x), (2 * t**2 - t * x - 2 * t + x) / (t + x)]])
    V = sp.Matrix([1, -2 * t + x - 1])
    ratio = (t - t**2) / ((t + x) * (t + x + 1))
    test_fraction_free_lift_matches_reference.hypothesis.inner_test(
        (2, TRIVIAL_TOWER, A, V, ratio))


def test_lift_over_non_monic_tower():
    """Over theta^2 = 1/(2t) the modulus in Z[t][theta] is 2t theta^2 - 1:
    reduction is a pseudo-remainder whose factor 2t goes into the
    denominators, and the lift still matches the reference."""
    tower = make_tower(theta**2 - 1 / (2 * t))
    A = sp.Matrix([[0, theta / (x + 1)], [x + t, 0]])
    V = sp.Matrix([1, 0])
    ratio = treduce(theta * (x + t) / (x + 2), tower)
    W = lift(V, ratio, 2, A, sp.zeros(2, 2), N=1, tower=tower)
    assert [W.value(j) for j in range(1, 31)] == \
        reference_lift(V, ratio, 2, A, 1, tower)
    with pytest.raises(VerificationError):
        lift(V, 2 * ratio, 2, A, sp.zeros(2, 2), N=1, tower=tower)


def _first_safe_index(A, B, V):
    """first_safe_index of V after the first_regular_index of A and B,
    all given as Expr matrices."""
    A = kform(A)
    return first_safe_index(first_regular_index(A, kform(B), A.det()),
                            kform(V))


def test_first_safe_index_skips_integer_poles():
    A = sp.Matrix([[1 / (x - 3)]])
    B = sp.Matrix([[0]])
    V = sp.Matrix([1])
    assert _first_safe_index(A, B, V) >= 4


@pytest.mark.parametrize("A, B, V, want", [
    (sp.diag(x - 7, 1), sp.zeros(2, 2), sp.Matrix([1, 0]), 8),
    (sp.eye(2), sp.diag(1 / ((x - 5) * t), 0), sp.Matrix([1, 0]), 6),
    (sp.eye(2), sp.zeros(2, 2), sp.Matrix([1 / (t * x - 9 * t), 0]), 10),
    (sp.diag(x - t, 1), sp.zeros(2, 2), sp.Matrix([1, 0]), 1),
])
def test_first_safe_index_exact(A, B, V, want):
    """Zeros of det A, poles of B and V; x = t is no integer root."""
    assert _first_safe_index(A, B, V) == want


def test_first_safe_index_skips_zero_start_vector():
    A = sp.Matrix([[2]])
    B = sp.Matrix([[0]])
    V = sp.Matrix([x - 5])
    N = _first_safe_index(A, B, V)
    assert treduce(V[0].subs(x, N)) != 0


# ---------------------------------------------------------------------------
# certificate verification

def _toy_solved_system():
    # sigma(Y) = 2 Y, delta(Y) = (1/t) Y has solution W = 1 with
    # sigma-ratio 2 and delta-ratio 1/t
    A = sp.Matrix([[2]])
    B = sp.Matrix([[1 / t]])
    sol = solution(sp.Matrix([1]),
                   HypCert(sigma_ratio=sp.Integer(2), sigma_step=1,
                           delta_ratio=1 / t))
    return DDSystem(1, A, B), sol


def test_verify_certificates_pass_and_fail():
    system, sol = _toy_solved_system()
    assert verify_certificates(system, sol).ok
    bad = solution(sp.Matrix([1]),
                   HypCert(sigma_ratio=sp.Integer(3), sigma_step=1,
                           delta_ratio=1 / t))
    res = verify_certificates(system, bad)
    assert not res.ok and res.failures


def test_verify_numeric_window_pass():
    system, sol = _toy_solved_system()
    assert verify_numeric_window(system, sol, sp.Rational(2), terms=10).ok


def test_verify_numeric_window_catches_mismatch():
    system, sol = _toy_solved_system()
    bad = solution(sp.Matrix([x]),
                   HypCert(sigma_ratio=sp.Integer(2), sigma_step=1,
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
    compiled = pts.compile(dm_from_matrix(sp.Matrix([e]), tower),
                           tower.degree)
    den = sp.fraction(sp.together(sp.cancel(e)))[1]
    if treduce(den.subs(sub), etower) == 0:
        with pytest.raises(PoleError):
            pts.at(compiled, j)
        return
    (got,), d = pts.at(compiled, j)
    want = treduce(e.subs(sub), etower)
    assert len(got) <= tower.degree
    assert treduce(pts.to_sympy(got, d) - want, etower) == 0, (e, j, t0)


def test_point_evaluator_clears_denominators_in_t():
    """Over theta^2 = 1/(2t) the reduction mod m leaves coefficients with
    denominators in t, which compile clears before Horner's rule runs in
    Z[t]."""
    tower = make_tower(theta**2 - 1 / (2 * t))
    e = (x * theta**3 + 3 * x**2 + t) / (x + theta + 1)
    pts = PointEvaluator(tower)
    compiled = pts.compile(dm_from_matrix(sp.Matrix([e]), tower),
                           tower.degree)
    for j in range(-2, 4):
        (got,), d = pts.at(compiled, j)
        assert treduce(pts.to_sympy(got, d) - e.subs(x, j), tower) == 0, j


def test_numeric_window_reports_doubled_example1_ratio(example1_path):
    system = read_system(example1_path)
    W = sp.Matrix([parse_ratfunc("-1*(t-theta)/(x-t^2)", EX1_TOWER),
                   parse_ratfunc("(x-t*theta)/(x-t^2)", EX1_TOWER)])
    ratio = parse_ratfunc("(x^2*theta+theta)", EX1_TOWER)
    delta_ratio = parse_ratfunc("(x*t+t^2*theta+t^2+theta+1)/(t^2+1)",
                                EX1_TOWER)

    def with_ratio(r):
        return solution(W, HypCert(r, 1, delta_ratio), EX1_TOWER)

    assert verify_numeric_window(system, with_ratio(ratio), sp.Integer(1)).ok
    res = verify_numeric_window(system, with_ratio(2 * ratio), sp.Integer(1))
    assert res.failures == ["solution: sigma relation fails at x=3, t=1"]


def test_certificate_check_over_a_tower(example1_path):
    """verify_certificates checks sigma^m(W) r = A_m W and
    delta(W) + W c = B W on K-forms through the regular representation:
    an example1 solution passes, and fails with its delta-ratio + 1 or its
    sigma-ratio * 2, as the Expr reference does."""
    system = read_system(example1_path)
    W = sp.Matrix([parse_ratfunc("-1*(t-theta)/(x-t^2)", EX1_TOWER),
                   parse_ratfunc("(x-t*theta)/(x-t^2)", EX1_TOWER)])
    ratio = parse_ratfunc("(x^2*theta+theta)", EX1_TOWER)
    delta_ratio = parse_ratfunc("(x*t+t^2*theta+t^2+theta+1)/(t^2+1)",
                                EX1_TOWER)
    cases = [
        (ratio, delta_ratio, []),
        (ratio, delta_ratio + 1,
         ["solution: delta identity delta(W) + c*W = B*W"]),
        (2 * ratio, delta_ratio,
         ["solution: sigma identity sigma^1(W)*r = A_1*W"]),
    ]
    for r, c, want in cases:
        cert = HypCert(r, 1, c)
        sol = solution(W, cert, EX1_TOWER)
        assert verify_certificates(system, sol).failures == want
        assert reference_check_pair(system.A, system.B, W, cert, EX1_TOWER,
                                    "solution") == want


def test_lift_over_tower_finds_its_start_index():
    """Without N, first_safe_index reads A and B over the solution's
    tower: the lift of test_lift_over_tower_cross_checks starts at N = 1
    and has the values of the N = 1 lift."""
    A = sp.Matrix([[0, theta], [x + 1, 0]])
    V = sp.Matrix([1, 0])
    args = (V, theta * (x + 1), 2, A, sp.zeros(2, 2))
    W = lift(*args, tower=EX1_TOWER, check_terms=12)
    ref = lift(*args, N=1, tower=EX1_TOWER, check_terms=12)
    assert W.N == 1
    assert [W.value(j) for j in range(1, 13)] == \
        [ref.value(j) for j in range(1, 13)]
