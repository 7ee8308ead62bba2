from collections import Counter

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

import ddsolve.sequences as sequences
from conftest import SYSTEMS
from ddsolve.fields import (TRIVIAL_TOWER, FieldError, dm_from_matrix,
                            from_theta_coords, make_tower, mat_inv, t, theta,
                            treduce, x)
from ddsolve.files import read_system
from helpers import (ReferenceQQPointEvaluator, mat_reduce, mat_shift,
                     reference_check_pair, reference_lift,
                     reference_tower_fault, shift, solution)
from ddsolve.parsing import parse_ratfunc
from ddsolve.procedures import (DDSystem, solve_liouvillian,
                                verification_point_fault)
from ddsolve.sequences import (CompiledMatrix, HypCert, LiouvilleSolution,
                               PoleError, PointEvaluator, SeqVec,
                               VerificationError,
                               first_regular_index, first_safe_index,
                               lift_sigma_d_to_sigma, tower_fault,
                               verify_certificates, verify_numeric_window)


def kform(M, tower=TRIVIAL_TOWER):
    """The K-form over the tower of a matrix, or of [M] for a scalar M."""
    if not isinstance(M, sp.MatrixBase):
        M = sp.Matrix([M])
    return dm_from_matrix(M, tower)


def lift(V, ratio, d, A, B, tower=TRIVIAL_TOWER, **kwargs):
    """lift_sigma_d_to_sigma on the K-forms of Expr arguments."""
    return lift_sigma_d_to_sigma(*(kform(M, tower) for M in (V, ratio)), d,
                                 *(kform(M, tower) for M in (A, B)),
                                 **kwargs)


def seq(A, N, V_N, t0=None):
    """The SeqVec W(N) = V_N, W(j+1) = A(j) W(j) on the K-forms of Expr
    arguments."""
    return SeqVec(CompiledMatrix(kform(A), t0), N, kform(V_N))


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
# lift: the recurrence, behind the exact check sigma^d(V) r = A_d V

def test_lift_step_two_cross_check_30_terms():
    # sigma^2-system: sigma^2(y) = (x+2)(x+3)/((x)(x+1)) y with rational
    # solution V = x(x+1); plant it in a 1-dim sigma-system A = x+1... use
    # A with A_2 = ratio/V-shape: simplest A(j) = j+2 gives W(j) = (j+1)!
    A = sp.Matrix([[x + 2]])
    B = sp.Matrix([[0]])
    V = sp.Matrix([1])
    # sigma^2-ratio of W: W(j+2)/W(j) = (j+3)(j+2)
    W = lift(V, sp.expand((x + 3) * (x + 2)), 2, A, B, N=1)
    assert W.value(1) == sp.Matrix([1])
    assert W.value(3) == sp.Matrix([4 * 3])


def test_lift_cross_check_failure_is_loud():
    A = sp.Matrix([[x + 2]])
    B = sp.Matrix([[0]])
    V = sp.Matrix([1])
    with pytest.raises(AssertionError):
        lift(V, sp.Integer(7), 2, A, B, N=1)


def test_lift_check_reaches_past_the_section_sum_window():
    """A ratio that agrees with the planted (x + 3)(x + 2) at every
    class-0 index a 30-term section-sum window reads, 1 + 2s for s < 15,
    passes that window (the reference's) but fails
    sigma^2(V) r = A_2 V, so the lift raises."""
    A = sp.Matrix([[x + 2]])
    V = sp.Matrix([1])
    planted = sp.expand((x + 3) * (x + 2))
    ratio = sp.expand(planted * (1 + sp.prod([x - 1 - 2 * s
                                              for s in range(15)])))
    assert reference_lift(V, ratio, 2, A, 1) == \
        reference_lift(V, planted, 2, A, 1)
    with pytest.raises(VerificationError):
        lift(V, ratio, 2, A, sp.Matrix([[0]]), N=1)


def test_lift_over_tower_cross_checks():
    # A(j+1) A(j) = theta * diag(j + 1, j + 2), so V = (1, 0) solves the
    # sigma^2-system with ratio theta*(x + 1) over the example1 tower
    A = sp.Matrix([[0, theta], [x + 1, 0]])
    B = sp.zeros(2, 2)
    V = sp.Matrix([1, 0])
    W = lift(V, theta * (x + 1), 2, A, B, N=1, tower=EX1_TOWER)
    assert W.value(3) == sp.Matrix([2 * theta, 0])
    with pytest.raises(VerificationError):
        lift(V, 2 * theta * (x + 1), 2, A, B, N=1, tower=EX1_TOWER)


def test_lifts_of_example2_evaluate_A_once_per_index(example2_path,
                                                     monkeypatch):
    """The solve evaluates A(j) at no index for its three lifts; reading
    their 30-term windows evaluates each A(j) once, through the one
    CompiledMatrix the lifts share."""
    system = read_system(example2_path)
    calls = []
    at = PointEvaluator.at

    def spy(self, compiled, j):
        calls.append((compiled, j))
        return at(self, compiled, j)

    monkeypatch.setattr(PointEvaluator, "at", spy)
    out = solve_liouvillian(system)
    lifts = out.report["lifts"]
    steps = lifts[0].steps
    assert len(lifts) == 3 and all(W.steps is steps for W in lifts)
    assert steps.compiled == PointEvaluator().compile(system.A_K)
    assert not any(c is steps.compiled for c, _ in calls)
    for W in lifts:
        for j in range(W.N, W.N + 30):
            W.point(j)
    monkeypatch.undo()
    per_index = Counter(j for c, j in calls if c is steps.compiled)
    assert set(per_index.values()) == {1}
    assert all(j in per_index for W in lifts for j in range(W.N, W.N + 29))
    # the exact check keeps its strength: a doubled ratio is caught
    W, cert = out.solutions[0].W, out.solutions[0].cert
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
        part = sol.part
        lift_sigma_d_to_sigma(part.W, part.r, system.n, system.A_K,
                              system.B_K)
        assert verify_numeric_window(system, sol, sp.Integer(1)).ok


def test_verification_and_lift_share_one_k_form_per_part(solved_example2,
                                                         monkeypatch):
    """Verifying and lifting example2's three solutions converts nothing
    to K: the solutions hold the K-forms W, r and c of their parts, and
    the certificate check, the numeric window and the lift all read those
    same K-forms: the lift builds each sequence from the part whose
    identity the certificate check decided."""
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
    monkeypatch.setattr(procedures, "SeqVec", spy("lift", procedures.SeqVec))
    procedures._lifts(system, out)

    parts = [sol.part for sol in out.solutions]
    assert len(parts) == 3
    assert log["convert"] == []
    assert all(args[1] is part for args, part in zip(log["check"], parts))
    assert len(log["check"]) == 3
    for part, args in zip(parts, log["lift"]):
        assert any(D is part.W for D in window)
        assert any(D is part.r for D in window)
        assert args[2] is part.W
    assert len(log["lift"]) == 3


def test_lifts_reuse_the_verified_identity(solved_example2, monkeypatch):
    """The solve's lifts form no cocycle: the identity sigma^n(W) r = A_n W
    was decided by the certificate check.  Their first 30 values are those
    of lift_sigma_d_to_sigma, which decides it again for a direct
    caller."""
    import sys

    import ddsolve.procedures as procedures

    system, out = solved_example2

    def refuse(*args):
        raise AssertionError("dm_sigma_power called")

    direct = [lift_sigma_d_to_sigma(sol.part.W, sol.part.r,
                                    system.n, system.A_K, system.B_K)
              for sol in out.solutions]
    for name, mod in list(sys.modules.items()):
        if name.startswith("ddsolve") and hasattr(mod, "dm_sigma_power"):
            monkeypatch.setattr(mod, "dm_sigma_power", refuse)
    lifts = procedures._lifts(system, out)
    assert len(lifts) == len(direct) == 3
    for got, want in zip(lifts, direct):
        assert got.N == want.N
        assert all(got.value(j) == want.value(j)
                   for j in range(got.N, got.N + 30))


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
    the reference Q(t) lift and the same verdict, for the planted ratio
    (which passes) and the doubled one (which raises VerificationError on
    both sides)."""
    d, tower, A, V, ratio = case
    B = sp.zeros(d, d)
    # the poles of A and of the ratio and the integer zeros of det A lie
    # in [-2, 2], and V has first entry 1: every index from 4 on is safe
    N, terms = 4, 12
    verdicts = []
    for r in (ratio, treduce(2 * ratio, tower)):
        try:
            want = reference_lift(V, r, d, A, N, tower, terms)
        except VerificationError:
            want = None
        try:
            W = lift(V, r, d, A, B, N=N, tower=tower)
            got = [W.value(j) for j in range(N, N + terms)]
        except VerificationError:
            got = None
        assert got == want
        verdicts.append(got is not None)
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


def test_first_safe_index_rejects_a_zero_V():
    """V = 0 is zero at every index, so no start index exists: a
    ValueError, also from a lift of V = 0 with N left to its default,
    whose exact check 0 = 0 passes."""
    A, B, V = sp.Matrix([[2]]), sp.Matrix([[0]]), sp.Matrix([0])
    with pytest.raises(ValueError, match="zero V"):
        _first_safe_index(A, B, V)
    with pytest.raises(ValueError, match="zero V"):
        lift(V, sp.Integer(2), 1, A, B)


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


def test_verify_certificates_fails_a_zero_W():
    """W = 0 satisfies both identities; a part with a zero W fails on its
    own message."""
    system, _ = _toy_solved_system()
    zero = solution(sp.Matrix([0]),
                    HypCert(sigma_ratio=sp.Integer(2), sigma_step=1,
                            delta_ratio=1 / t))
    assert verify_certificates(system, zero).failures == \
        ["solution: W is zero"]


def test_verify_numeric_window_pass():
    system, sol = _toy_solved_system()
    assert verify_numeric_window(system, sol, sp.Rational(2), terms=10).ok


@pytest.mark.parametrize("terms", [0, -3])
def test_verify_numeric_window_rejects_empty_window(terms):
    system, sol = _toy_solved_system()
    with pytest.raises(ValueError, match="terms >= 1"):
        verify_numeric_window(system, sol, sp.Rational(2), terms=terms)


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


def _coordinates_at(pts, compiled, j, deg):
    """(a, d): the element over the tower whose K-form is compiled, at x = j,
    is a / d, a read off the coordinates in the first column of the
    K-form's value."""
    values, d = pts.at(compiled, j)
    (a,) = from_theta_coords(values[::deg], deg)
    return a, d


@settings(max_examples=60, deadline=None)
@given(_entries())
def test_point_evaluator_matches_sympy_reference(case):
    tower, t0, e, j = case
    sub = {x: j} if t0 is None else {x: j, t: t0}
    etower = (tower if t0 is None or tower.trivial
              else make_tower(sp.expand(tower.minpoly.subs(t, t0))))
    pts = PointEvaluator(t0)
    compiled = pts.compile(dm_from_matrix(sp.Matrix([e]), tower))
    den = sp.fraction(sp.together(sp.cancel(e)))[1]
    if treduce(den.subs(sub), etower) == 0:
        with pytest.raises(PoleError):
            pts.at(compiled, j)
        return
    got, d = _coordinates_at(pts, compiled, j, tower.degree)
    want = treduce(e.subs(sub), etower)
    assert len(got) <= tower.degree
    assert treduce(pts.to_sympy(got, d) - want, etower) == 0, (e, j, t0)


def test_point_evaluator_clears_denominators_in_t():
    """Over theta^2 = 1/(2t) the K-form has entries with denominators in
    t, which compile clears before Horner's rule runs in Z[t]."""
    tower = make_tower(theta**2 - 1 / (2 * t))
    e = (x * theta**3 + 3 * x**2 + t) / (x + theta + 1)
    pts = PointEvaluator()
    compiled = pts.compile(dm_from_matrix(sp.Matrix([e]), tower))
    for j in range(-2, 4):
        got, d = _coordinates_at(pts, compiled, j, tower.degree)
        assert treduce(pts.to_sympy(got, d) - e.subs(x, j), tower) == 0, j


# example1's tower theta^2 = t^2 + 1 stays irreducible at each of these; at
# t0 = a/b its cleared modulus b^2 theta^2 - a^2 - b^2 is monic only for b = 1
WINDOW_T0S = [sp.Integer(1), sp.Integer(2), sp.Rational(1, 2),
              sp.Rational(-1, 2), sp.Rational(2, 3)]


def test_recurrence_at_a_rational_t0_over_a_tower_is_the_symbolic_one():
    """At t0 = a/b the steps of a recurrence over the tower multiply the
    values of K-forms over Z, homogenized by powers of b; its values are
    those of the recurrence with t symbolic, specialized at t0."""
    A = kform(sp.Matrix([[0, theta / (t + 1)], [x + 1, t * theta]]),
              EX1_TOWER)
    V = kform(sp.Matrix([1, theta + x]), EX1_TOWER)
    symbolic = SeqVec(CompiledMatrix(A), 1, V)
    for t0 in WINDOW_T0S:
        at_t0 = SeqVec(CompiledMatrix(A, t0), 1, V)
        etower = make_tower(sp.expand(EX1_TOWER.minpoly.subs(t, t0)))
        for j in range(1, 7):
            want = symbolic.value(j).subs(t, t0)
            assert all(treduce(g - w, etower) == 0
                       for g, w in zip(at_t0.value(j), want)), (t0, j)


def _window_result(system, sol, t0, evaluator, fault, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(sequences, "PointEvaluator", evaluator)
        patch.setattr(sequences, "tower_fault", fault)
        try:
            return verify_numeric_window(system, sol, t0)
        except FieldError as err:
            return str(err)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_numeric_window_over_Z_matches_the_QQ_reference(name, monkeypatch):
    """The window at t0 = a/b runs over Z, homogenized by b^D, and gives
    the VerifyResult of the evaluator over Q that it replaced
    (helpers.ReferenceQQPointEvaluator, with the reference's check of the
    minimal polynomial) on every solution of example1 and example2 at
    five rational points; with a doubled sigma-ratio both fail, at the
    same index."""
    evaluators = ((PointEvaluator, tower_fault),
                  (ReferenceQQPointEvaluator, reference_tower_fault))
    system = read_system(str(SYSTEMS / f"{name}.json"))
    out = solve_liouvillian(system)
    assert out.kind == "Solved"
    for sol in out.solutions:
        part = sol.part
        bad = LiouvilleSolution(sol.kind, part._replace(r=part.r + part.r),
                                sol.tower)
        for t0 in WINDOW_T0S:
            got, want = (_window_result(system, sol, t0, *ev, monkeypatch)
                         for ev in evaluators)
            assert got == want and got.ok, (name, t0)
            got, want = (_window_result(system, bad, t0, *ev, monkeypatch)
                         for ev in evaluators)
            assert got == want and not got.ok, (name, t0)
            assert "sigma relation fails at x=" in got.failures[0]


@pytest.mark.parametrize("tower, t0, message", [
    (make_tower(theta**2 - 1 / (2 * t)), sp.Integer(0),
     "minimal polynomial has a pole at t = 0"),
    (EX1_TOWER, sp.Rational(3, 4),
     "minimal polynomial is reducible at t = 3/4"),
])
def test_point_evaluator_faults_at_t0_match_the_QQ_reference(tower, t0,
                                                             message):
    """tower_fault gives the reference's message (the minimal polynomial
    made monic over Q at t0), and so do the window, as a FieldError, and
    verification_point_fault, which reads the tower before any form."""
    system, _ = _toy_solved_system()
    sol = solution(sp.Matrix([theta]), HypCert(2, 1, 1 / t), tower)
    assert tower_fault(tower, t0) == reference_tower_fault(tower, t0) == \
        message
    assert verification_point_fault(system, [sol], t0) == message
    with pytest.raises(FieldError) as err:
        verify_numeric_window(system, sol, t0)
    assert str(err.value) == message


def test_numeric_window_rejects_a_float_t0(solved_example2):
    """t0 is a SymPy Rational; a Float is not rationalized."""
    system, out = solved_example2
    with pytest.raises(FieldError, match="t0 must be a rational number"):
        verify_numeric_window(system, out.solutions[0], sp.Float(0.5))


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
    W = lift(*args, tower=EX1_TOWER)
    ref = lift(*args, N=1, tower=EX1_TOWER)
    assert W.N == 1
    assert [W.value(j) for j in range(1, 13)] == \
        [ref.value(j) for j in range(1, 13)]


@pytest.mark.parametrize("tower, c", [(TRIVIAL_TOWER, t), (EX1_TOWER, theta)])
def test_lift_value_at_N_is_V_at_N(tower, c):
    """W(N) = V(N): V = (c x, 0) solves the sigma^2-system of
    A = [[0, c], [x + 1, 0]] with ratio c x (x + 1)/(x + 2), and its lift
    starts at V(N), N given or found, and steps on to
    W(N + 2) = A(N + 1) A(N) V(N)."""
    A = sp.Matrix([[0, c], [x + 1, 0]])
    V = sp.Matrix([c * x, 0])
    ratio = treduce(c * x * (x + 1) / (x + 2), tower)
    for N in (3, None):
        W = lift(V, ratio, 2, A, sp.zeros(2, 2), N=N, tower=tower)
        assert W.N == (N or 1)
        assert mat_reduce(W.value(W.N) - V.subs(x, W.N), tower) == \
            sp.zeros(2, 1)
        step = A.subs(x, W.N + 1) * A.subs(x, W.N) * V.subs(x, W.N)
        assert mat_reduce(W.value(W.N + 2) - step, tower) == sp.zeros(2, 1)
