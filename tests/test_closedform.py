import dataclasses
import random

import pytest
import sympy as sp
from sympy import QQ
from sympy.polys.densearith import dup_mul_ground
from sympy.polys.densebasic import dup_convert
from hypothesis import example, given, settings, strategies as st

from ddsolve import closedform
from ddsolve.closedform import (UnsupportedCase, hyperexp_solutions,
                                petkovsek, system_hypergeometric)
from ddsolve.difftools import standard_decompose
from ddsolve.fields import (QQ_XT, dm_from_matrix, dm_over_qt, dm_shift,
                            dm_to_matrix, element_expr, sigma_power_matrix, t,
                            theta, treduce, x)
from ddsolve.files import read_system
from ddsolve.procedures import _specialization_point
from ddsolve import ratsol
from ddsolve.ratsol import scalar_operators
from ddsolve.sequences import VerificationError

from helpers import (delta, mat_reduce, reference_hyperexp_solutions,
                     reference_indicial_degrees, reference_petkovsek, shift,
                     teq)


def _recurrence_from_ratio(r, m=1):
    """Coefficients (p0, p1) of p1(x) y(x+m) + p0(x) y(x) = 0 whose
    hypergeometric solutions have sigma^m-ratio r."""
    num, den = sp.fraction(sp.cancel(r))
    return [-num, den]


def _ratio_matches(r1, r2):
    return sp.cancel(sp.cancel(r1) - sp.cancel(r2)) == 0


# ---------------------------------------------------------------------------
# Petkovsek against constructed recurrences (30 cases)

def test_petkovsek_30_constructed_recurrences():
    rng = random.Random(31)
    cases = 0
    while cases < 30:
        a = x + rng.randint(0, 3)
        b = x + rng.randint(1, 4)
        z = sp.Rational(rng.choice([1, 2, 3, -1, -2]))
        r = sp.cancel(z * a / b)
        ps = _recurrence_from_ratio(r)
        found = petkovsek(ps)
        assert any(_ratio_matches(f, r) for f in found), (r, found)
        # every returned ratio must satisfy the recurrence product check:
        # p1(x) r(x) + p0(x) = 0 for first-order recurrences
        for f in found:
            assert sp.cancel(ps[1] * f + ps[0]) == 0
        cases += 1


def test_petkovsek_second_order_fibonacci_style():
    # y(x+2) = y(x+1) + y(x): ratios are the quadratic units (1±sqrt5)/2;
    # no rational hypergeometric solution exists
    ratios = petkovsek([-1, -1, 1])
    for r in ratios:
        # any returned ratio must satisfy r(x+1) r(x) = r(x) + 1
        assert sp.simplify(shift(r) * r - r - 1) == 0


def test_petkovsek_second_order_with_rational_solutions():
    # (x+2) y(x+2) - (2x+3) y(x+1) + (x+1) y(x) = 0 has y = 1 (ratio 1)
    ps = [x + 1, -(2 * x + 3), x + 2]
    found = petkovsek(ps)
    assert any(_ratio_matches(f, 1) for f in found)


def test_petkovsek_quadratic_constant():
    # y(x+2) = 2 y(x) forces ratio +-sqrt(2): no ratio in Q(x); the
    # step-2 reading sigma^2(y) = 2y gives the rational ratio 2
    found2 = petkovsek([-2, 1], 2)
    assert any(_ratio_matches(f, 2) for f in found2)


def test_petkovsek_step_three():
    # sigma^3(y) = x(x+1) y, the compressed ratio of the interlaced example
    found = petkovsek([-x * (x + 1), 1], 3)
    assert any(_ratio_matches(f, x * (x + 1)) for f in found)


def test_petkovsek_leading_zero_normalization():
    # p2 = 0 at the leading slot after shifting: (x) y(x+1) - (x+1) y(x)
    # multiplied by a zero-leading pad must not break the search
    found = petkovsek([-(x + 1), x])
    assert any(_ratio_matches(f, (x + 1) / x) for f in found)


def test_petkovsek_rejects_input_outside_q_x():
    with pytest.raises(ValueError, match=r"not in Q\[x\]: 1/x"):
        petkovsek([1 / x, 1])
    with pytest.raises(ValueError, match=r"not in Q\[x\]: t"):
        petkovsek([t, -1])
    with pytest.raises(ValueError, match="only zero coefficients"):
        petkovsek([0, 0])


def test_petkovsek_rejects_a_float():
    """A Float coefficient is not rationalized into Q[x]."""
    with pytest.raises(ValueError, match=r"not in Q\[x\]: 0\.5\*x"):
        petkovsek([sp.Float(0.5) * x, -1])


# ---------------------------------------------------------------------------
# Petkovsek against the Expr reference: same ratios, same order, same srepr

def _same_ratios(ps, m):
    got = petkovsek(ps, m)
    want = reference_petkovsek(ps, m)
    assert [sp.srepr(r) for r in got] == [sp.srepr(r) for r in want]
    return got


def _compose(L1, L2, m):
    """Coefficients of (sum_i p_i sigma^(m i)) o (sum_j q_j sigma^(m j))."""
    out = [sp.Integer(0)] * (len(L1) + len(L2) - 1)
    for i, p in enumerate(L1):
        for j, q in enumerate(L2):
            out[i + j] += p * shift(q, m * i)
    return [sp.expand(c) for c in out]


_FACTORS = [sp.Integer(1), x, x + 1, x - 2, 2 * x + 1, x**2 + 1]


@st.composite
def _planted_recurrences(draw):
    """Products of one or two first-order operators b(x) sigma^m - z a(x),
    padded with zero coefficients at either end."""
    m = draw(st.sampled_from([1, 2, 3]))
    L = None
    for _ in range(draw(st.integers(1, 2))):
        z = draw(st.sampled_from([1, -1, 2, sp.Rational(1, 2), -3]))
        a, b = draw(st.sampled_from(_FACTORS)), draw(st.sampled_from(_FACTORS))
        op = [sp.expand(-z * a), b]
        L = op if L is None else _compose(L, op, m)
    lead, trail = draw(st.integers(0, 2)), draw(st.integers(0, 1))
    return [0] * lead + L + [0] * trail, m, sp.cancel(z * a / b)


@settings(max_examples=25, deadline=None)
@given(_planted_recurrences())
@example(([1, -2, 1], 1, sp.Integer(1)))
@example(([x, -2 * x - 2, x + 2], 1, x / (x + 1)))
@example(([x - 2, -2 * x, x + 2], 2, (x - 2) / x))
def test_petkovsek_matches_reference_on_planted_recurrences(case):
    """Hyper returns one ratio per similarity class, so the planted ratio
    r is found up to a factor sigma^m(c)/c, c rational: some g has
    g / r of standard part 1.  The pinned cases return (x + 2)/(x + 1) for
    r = 1, (x^2 + 2x)/(x + 1)^2 for r = x/(x + 1), and
    (x + 3)(x - 2)/(x (x + 1)) for r = (x - 2)/x with m = 2."""
    ps, m, r = case
    got = _same_ratios(ps, m)
    # the ratio of the right-hand factor solves the product; the padding
    # shifts it by the number of leading zeros
    lead = next(i for i, p in enumerate(ps) if p != 0)
    r = shift(r, -m * lead)
    assert any(standard_decompose(QQ_XT.from_sympy(g / r), m).standard_part
               == 1 for g in got)


@settings(max_examples=25, deadline=None)
@given(_planted_recurrences())
@example(([1, -2, 1], 1, sp.Integer(1)))
@example(([-2, 0, 1], 1, None))
@example(([-1, -1, 1], 1, None))
@example(([0, -1, -1, 1, 0], 1, None))
@example(([x - 2, -2 * x, x + 2], 2, (x - 2) / x))
def test_hyper_degree_bound_matches_the_reference_indicial_roots(case):
    """On every (pair, z) Hyper searches, rational or quadratic z, the
    degree bound of its C-equation, ratsol.degree_bound on the regular
    representation, is the largest nonnegative integer root of the first
    nonzero indicial polynomial over Q(z), or -1."""
    ps, m, _ = case
    seen = []
    c_kernel, ansatz_kernel = closedform._c_kernel, closedform.ansatz_kernel

    def c_spy(P, m, f):
        seen.append([P, m, f])
        return c_kernel(P, m, f)

    def ansatz_spy(Ps, step, e):
        seen[-1].append(ratsol.degree_bound(Ps, step, step))
        return ansatz_kernel(Ps, step, e)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(closedform, "_c_kernel", c_spy)
        mp.setattr(closedform, "ansatz_kernel", ansatz_spy)
        petkovsek(ps, m)
    assert seen
    for P, m, f, bound in seen:
        if len(f) == 2:
            K, z = QQ, -f[1]
        else:
            q = sp.Poly(f, sp.Symbol("_z"), domain=QQ)
            K = QQ.algebraic_field((q, sp.roots(q, multiple=True)[0]))
            z = K.unit
        Q = [dup_mul_ground(dup_convert(p, QQ, K), z**i, K)
             for i, p in enumerate(P)]
        assert bound == max([-1] + (reference_indicial_degrees(Q, m, K)
                                    or []))


@pytest.fixture(scope="module")
def example2_A0(example2_path):
    """The K-form of the sigma^3-system of example2 specialized at t = 0,
    as decision procedure 2 builds it (beta = t^3)."""
    A = read_system(example2_path).A
    _, A0 = _specialization_point(dm_from_matrix(
        mat_reduce(sigma_power_matrix(A, 3) / t**3)))
    return A0


@pytest.fixture(scope="module")
def example2_operators(example2_A0):
    """Scalar operators of example2's specialized sigma^3-system."""
    return [list(dm_to_matrix(op))
            for op in scalar_operators(example2_A0, 3)]


def test_petkovsek_matches_reference_on_example2(example2_operators):
    assert len(example2_operators) == 3
    found = [_same_ratios(op, 3) for op in example2_operators]
    assert any(_ratio_matches(r, (x + 1) * (x + 2)) for r in found[2])


@pytest.mark.parametrize("ps, m", [
    ([-2, 0, 1], 1),            # +-sqrt(2)
    ([1, 0, 1], 1),             # +-I
    ([-1, -1, 1], 1),           # the golden ratio and its conjugate
    ([-2, 1], 2),
    ([1, 0, -2], 1),
    ([0, -1, -1, 1, 0], 1),
])
def test_petkovsek_matches_reference_on_quadratic_constants(ps, m):
    assert _same_ratios(ps, m)


@pytest.mark.parametrize("ps", [[-2, 0, 1], [0, -1, -1, 1, 0]])
def test_petkovsek_solves_for_c_once_per_quadratic_factor(monkeypatch, ps):
    """Conjugate roots of a quadratic leading factor share f and so the
    kernel of their C-equation: Hyper solves it once per (P, m, f)."""
    calls = []
    c_kernel = closedform._c_kernel

    def spy(P, m, f):
        calls.append((tuple(map(tuple, P)), m, tuple(f)))
        return c_kernel(P, m, f)

    monkeypatch.setattr(closedform, "_c_kernel", spy)
    petkovsek(ps)
    assert any(len(f) == 3 for _, _, f in calls)
    assert len(calls) == len(set(calls))


def test_petkovsek_search_runs_without_expand(monkeypatch):
    """Reading the coefficients, the divisor pairs, the leading roots, the
    degree bounds, the solves for C and the check of each ratio
    work on polynomials, not expressions: Expr.expand only runs where a
    ratio is turned into an expression."""
    ps = [x + 1, -(2 * x + 3), x + 2]
    want = [sp.srepr(r) for r in reference_petkovsek(ps)]
    expand, ratio_expr = sp.Expr.expand, closedform.ratio_expr

    def no_expand(self, *args, **kwargs):
        raise AssertionError("Expr.expand called")

    def boundary(*args):
        monkeypatch.setattr(sp.Expr, "expand", expand)
        try:
            return ratio_expr(*args)
        finally:
            monkeypatch.setattr(sp.Expr, "expand", no_expand)

    monkeypatch.setattr(closedform, "ratio_expr", boundary)
    monkeypatch.setattr(sp.Expr, "expand", no_expand)
    try:
        got = petkovsek(ps)
    finally:
        monkeypatch.undo()
    assert [sp.srepr(r) for r in got] == want


def test_petkovsek_check_catches_a_corrupted_kernel(monkeypatch,
                                                    example2_A0):
    """The dense substitution check is not vacuous: every C made wrong by
    the factor x + 1/2 makes both petkovsek and system_hypergeometric
    raise."""
    c_kernel = closedform._c_kernel

    def corrupted(P, m, f):
        # each kernel vector times x + 1/2, in its coordinates dg*e + k
        zeros = [QQ(0)] * (len(f) - 1)
        return [[QQ(1, 2) * a + b for a, b in zip(v + zeros, zeros + v)]
                for v in c_kernel(P, m, f)]

    monkeypatch.setattr(closedform, "_c_kernel", corrupted)
    with pytest.raises(VerificationError, match="substitution check"):
        petkovsek([-(x + 1), x])
    with pytest.raises(VerificationError, match="substitution check"):
        system_hypergeometric(example2_A0, 3)


# ---------------------------------------------------------------------------
# system-level hypergeometric candidates

def _solves(c, M):
    """sigma^m(W) r = M W on K-forms."""
    return dm_shift(c.W, c.m).mul(c.ratio) == M * c.W


def test_system_hypergeometric_diagonal():
    M = dm_from_matrix(sp.diag((x + 1) / x, 2))
    cands = system_hypergeometric(M)
    ratios = [QQ_XT.to_sympy(c.ratio) for c in cands]
    assert any(_ratio_matches(r, (x + 1) / x) for r in ratios)
    assert any(_ratio_matches(r, 2) for r in ratios)
    for c in cands:
        assert _solves(c, M)


def test_system_hypergeometric_none():
    # sigma(Y) = [[0, x], [1, 0]] Y has ratio^2 = x(x+1)-like growth:
    # no hypergeometric solution with rational ratio of this parity mix
    M = dm_from_matrix(sp.Matrix([[0, 1], [x, 0]]))
    for c in system_hypergeometric(M):
        assert _solves(c, M)


def test_system_hypergeometric_quadratic_ratio_is_unsupported():
    """sigma(Y) = [[0, 1], [2, 0]] Y has the ratios +-sqrt(2), outside
    Q(x, t), where the back-substitution works."""
    with pytest.raises(UnsupportedCase, match=r"sqrt\(2\)"):
        system_hypergeometric(dm_from_matrix(sp.Matrix([[0, 1], [2, 0]])))


def test_system_hypergeometric_drops_candidates_in_the_constant_span(
        monkeypatch):
    """The ratios x and x^2/(x + 1) = sigma(g)/g * x, g = 1/x, share the
    standard part x.  For sigma(Y) = x Y the second gives the vectors
    x e_1 and x e_2, whose g W lie in the constant span of the first's
    e_1 and e_2: two candidates, not four."""
    monkeypatch.setattr(closedform, "hyper_ratios", lambda ps, m: [
        (QQ, [QQ(1), QQ(0)], [QQ(1)]),
        (QQ, [QQ(1), QQ(0), QQ(0)], [QQ(1), QQ(1)])])
    M = dm_from_matrix(sp.diag(x, x))
    cands = system_hypergeometric(M)
    assert [(QQ_XT.to_sympy(c.ratio), QQ_XT.to_sympy(c.standard_part))
            for c in cands] == [(x, x), (x, x)]
    for c in cands:
        assert _solves(c, M)


@pytest.mark.parametrize("m, groups", [(1, 1), (2, 2)])
def test_system_hypergeometric_one_group_per_sigma_class(m, groups):
    """x and x + 1 are both standard.  For m = 1, x + 1 = sigma(x)/x * x
    puts them in one sigma-class, whose solution space is 2-dimensional,
    so the ratio x + 1 adds no candidate to those of x.  For m = 2 they
    lie in two sigma^2-classes with one candidate each."""
    M = dm_from_matrix(sp.diag(x, x + 1))
    cands = system_hypergeometric(M, m)
    assert len(cands) == 2
    assert len({c.standard_part for c in cands}) == groups
    for c in cands:
        assert _solves(c, M)


def test_system_hypergeometric_builds_no_expr(example2_A0, monkeypatch):
    """From the scalar operators to the candidates nothing is an
    expression: the search, the ratios in K, the standard parts and the
    back-substitution run with cancel, simplify, Expr.expand and
    dm_to_matrix disabled."""
    import ddsolve.fields as fields

    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return fail

    monkeypatch.setattr(sp, "cancel", forbidden("cancel"))
    monkeypatch.setattr(sp, "simplify", forbidden("simplify"))
    monkeypatch.setattr(sp.Expr, "expand", forbidden("Expr.expand"))
    monkeypatch.setattr(fields, "dm_to_matrix", forbidden("dm_to_matrix"))
    try:
        cands = system_hypergeometric(example2_A0, 3)
    finally:
        monkeypatch.undo()
    assert len(cands) == 3
    for c in cands:
        assert _solves(c, example2_A0)


def test_system_hypergeometric_one_candidate_per_standard_part(example2_A0):
    """example2's specialized sigma^3-system has one candidate for each of
    the standard parts x(x+1), (x+1)(x+2) and (x+2)(x+3): every other
    candidate the ratios give lies in the constant span of one of these."""
    cands = system_hypergeometric(example2_A0, 3)
    assert len(cands) == 3
    assert sorted((QQ_XT.to_sympy(c.standard_part) for c in cands),
                  key=sp.default_sort_key) \
        == [x**2 + x, x**2 + 3 * x + 2, x**2 + 5 * x + 6]
    for c in cands:
        assert c.m == 3
        assert _solves(c, example2_A0)


# ---------------------------------------------------------------------------
# hyperexponential solutions of delta(Y) = C Y over Q(t)

def _hyperexp(C: sp.Matrix):
    """hyperexp_solutions on the K-form of C, each certificate read back as
    an expression."""
    return [dataclasses.replace(c, certificate=element_expr(c.certificate))
            for c in hyperexp_solutions(dm_from_matrix(C))]


def _hyperexp_solves(c, C: sp.Matrix) -> bool:
    """delta(V) + certificate * V = C V over the candidate's tower."""
    V = dm_to_matrix(c.V, c.tower)
    lhs = mat_reduce(V.applyfunc(lambda e: delta(e, c.tower))
                     + c.certificate * V - C * V, c.tower)
    return all(treduce(e, c.tower) == 0 for e in lhs)


def test_hyperexp_diagonal():
    C = sp.diag(1 / t, 2)
    cands = _hyperexp(C)
    certs = [c.certificate for c in cands]
    assert any(teq(c, 1 / t) for c in certs)
    assert any(teq(c, 2) for c in certs)


def test_hyperexp_constant_rational_eigenvalues():
    C = sp.Matrix([[0, 1], [2, 1]])  # eigenvalues 2, -1
    cands = _hyperexp(C)
    assert len(cands) >= 2
    for c in cands:
        assert _hyperexp_solves(c, C)


def test_hyperexp_constant_quadratic_eigenvalues():
    C = sp.Matrix([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2)
    cands = _hyperexp(C)
    assert cands
    for c in cands:
        assert _hyperexp_solves(c, C)


def test_hyperexp_simple_pole_matrix():
    # delta(Y) = C Y with a simple pole at 0; y = (t, 1)-style solutions
    C = sp.Matrix([[1 / t, 0], [0, 1 / t + 1]])
    cands = _hyperexp(C)
    assert len(cands) >= 2
    for c in cands:
        assert _hyperexp_solves(c, C)


def test_hyperexp_unsupported_raises():
    """The three exits of the search, each with its message."""
    for C, message in (
            (sp.Matrix([[1 / t**2, 1], [x, 0]]), "matrix must be over Q(t)"),
            (sp.Matrix([[1 / t**2, 1], [1, 0]]),
             "finite pole not simple and rational"),
            (sp.Matrix([[t, 1], [1, 0]]), "matrix grows at t = infinity")):
        with pytest.raises(UnsupportedCase) as err:
            _hyperexp(C)
        assert str(err.value) == message


@pytest.mark.parametrize("D, pinned", [
    (sp.diag(1 / t, 0), [(0, [t, 0]), (0, [1, 1])]),
    (sp.diag(2 / t, -1 / (t + 1)),
     [(-1 / (t + 1), [t**3 + t**2, 0]), (-1 / (t + 1), [1, 1])]),
])
def test_hyperexp_keeps_every_solution_of_one_certificate(D, pinned):
    """B = G D G^-1, G = [[1, 1], [0, 1]]: solutions that share a
    certificate and are independent over Q are all kept, since they are
    independent over Q(t) too (q V solves only for q' = 0)."""
    G = sp.Matrix([[1, 1], [0, 1]])
    C = mat_reduce(G * D * G.inv())
    cands = _hyperexp(C)
    got = [(c.certificate, list(dm_to_matrix(c.V))) for c in cands]
    cert = pinned[0][0]
    assert [g for g in got if teq(g[0], cert)] == pinned
    for c in cands:
        assert _hyperexp_solves(c, C)


# ---------------------------------------------------------------------------
# hyperexp_solutions against the Expr reference (tests/helpers.py): the same
# candidates in the same order, srepr included, and the same exits

# constant gauges: unimodular, so G^-1 stays over Z
_GAUGES = [sp.Matrix(g) for g in ([[1, 0], [0, 1]], [[1, 1], [0, 1]],
                                  [[2, 1], [1, 1]], [[0, 1], [1, 0]],
                                  [[1, 0], [-2, 1]])]
_POLES = [0, 1, -1, sp.Rational(1, 2), -2]
_RESIDUES = [0, 1, -1, 2, -2, sp.Rational(1, 2), sp.Rational(-3, 2)]


def _srepr_candidates(cands, as_matrix):
    return [(sp.srepr(as_matrix(c)), sp.srepr(c.certificate),
             sp.srepr(c.tower.minpoly)) for c in cands]


def _same_as_reference(C: sp.Matrix):
    """Run both on C: equal candidate lists, or the same exception class
    with the same message."""
    try:
        want = _srepr_candidates(reference_hyperexp_solutions(C),
                                 lambda c: c.V)
    except UnsupportedCase as err:
        with pytest.raises(UnsupportedCase) as got:
            _hyperexp(C)
        assert str(got.value) == str(err)
        return
    got = _hyperexp(C)
    assert _srepr_candidates(got, lambda c: dm_to_matrix(c.V, c.tower)) \
        == want
    for c in got:
        assert _hyperexp_solves(c, C)


@st.composite
def _constant_inputs(draw):
    """Constant matrices with rational, quadratic or Jordan-block
    eigenvalues, and diagonal ones over Q(t), gauged by a constant G."""
    G = draw(st.sampled_from(_GAUGES))
    a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    kind = draw(st.sampled_from(["diagonal", "rational", "quadratic",
                                 "jordan"]))
    if kind == "diagonal":
        pole = draw(st.sampled_from(_POLES))
        return sp.diag(a + b / (t - pole), b * t)
    if kind == "quadratic":
        d = draw(st.sampled_from([2, 3, -1, 5]))
        D = sp.Matrix([[a, d], [1, a]])     # eigenvalues a +- sqrt(d)
    elif kind == "jordan":
        D = sp.Matrix([[a, 1], [0, a]])
    else:
        D = sp.diag(a, b)
    return mat_reduce(G * D * G.inv())


@st.composite
def _simple_pole_inputs(draw):
    """Constant gauges of diag(mu_i + sum_a lam_ia / (t - a)), residues
    integer and not."""
    G = draw(st.sampled_from(_GAUGES[1:]))
    poles = draw(st.lists(st.sampled_from(_POLES), min_size=1, max_size=2,
                          unique=True))
    entries = [draw(st.sampled_from([0, 1, -1, sp.Rational(1, 2)]))
               + sum(draw(st.sampled_from(_RESIDUES)) / (t - a)
                     for a in poles) for _ in range(2)]
    return mat_reduce(G * sp.diag(*entries) * G.inv())


@st.composite
def _unsupported_inputs(draw):
    """Double-pole, irrational-pole, growing and x-dependent inputs."""
    G = draw(st.sampled_from(_GAUGES[1:]))
    c = draw(st.sampled_from([1, -1, 2]))
    entry = draw(st.sampled_from([c / t**2, c / (t**2 - 2), c * t + 1,
                                  c * x / (t + 1)]))
    return mat_reduce(G * sp.diag(entry, 1 / (t + c)) * G.inv())


@settings(max_examples=30, deadline=None)
@given(_constant_inputs())
def test_hyperexp_matches_reference_on_constant_and_diagonal(C):
    _same_as_reference(C)


@settings(max_examples=12, deadline=None)
@given(_simple_pole_inputs())
def test_hyperexp_matches_reference_on_simple_poles(C):
    _same_as_reference(C)


@settings(max_examples=12, deadline=None)
@given(_unsupported_inputs())
def test_hyperexp_matches_reference_on_unsupported_inputs(C):
    _same_as_reference(C)


def test_simple_poles_are_rationals_in_qq():
    """The poles 1/2 and -1/3 of diag(1/(2t - 1), 1/(3t + 1)) are
    quotients of integer coefficients, formed in QQ, and ordered by
    denominator; the residue matrices are read at those rationals."""
    C = dm_over_qt(dm_from_matrix(sp.diag(1 / (2 * t - 1), 1 / (3 * t + 1))))
    poles = closedform._simple_poles(C)
    assert [a for a, _ in poles] == [QQ(1, 2), QQ(-1, 3)]
    assert [R.to_Matrix() for _, R in poles] == [
        sp.diag(sp.Rational(1, 2), 0), sp.diag(0, sp.Rational(1, 3))]


# the inputs of the hyperexp tests above, and two of the shape that
# _simple_pole_inputs draws, with rational poles and values at infinity
_HYPEREXP_INPUTS = [
    sp.diag(1 / t, 2), sp.Matrix([[0, 1], [2, 1]]),
    sp.Matrix([[0, 2], [1, 0]]), sp.Matrix([[1 / t, 0], [0, 1 / t + 1]]),
    sp.Matrix([[1 / t**2, 1], [x, 0]]), sp.Matrix([[1 / t**2, 1], [1, 0]]),
    sp.Matrix([[t, 1], [1, 0]]),
    *(mat_reduce(sp.Matrix([[1, 1], [0, 1]]) * D
                 * sp.Matrix([[1, -1], [0, 1]]))
      for D in (sp.diag(1 / t, 0), sp.diag(2 / t, -1 / (t + 1)),
                sp.diag(sp.Rational(1, 2) + 1 / (t - sp.Rational(1, 2)),
                        -1 + sp.Rational(-3, 2) / (t + 2)),
                sp.diag(1 + 2 / (t - sp.Rational(1, 2)) - 1 / t,
                        sp.Rational(1, 2) / t)))]


def _hyperexp_outcome(C):
    try:
        return _srepr_candidates(_hyperexp(C),
                                 lambda c: dm_to_matrix(c.V, c.tower))
    except UnsupportedCase as err:
        return str(err)


def test_no_float_reaches_a_domain(monkeypatch, example1_path,
                                   example2_path, hermite_path):
    """K and Q(t) have integer coefficients, so a quotient of two of them
    written with / would be a float, which SymPy's domains rationalize
    silently.  With that conversion made to raise, the bundled systems, a
    gauged example2 and the hyperexp inputs above keep their verdicts and
    candidates."""
    from sympy.polys.domains import IntegerRing, RationalField

    from ddsolve.procedures import solve_liouvillian
    from gauged import gauged_system

    hyperexp = [_hyperexp_outcome(C) for C in _HYPEREXP_INPUTS]

    def no_float(self, a, K0):
        raise AssertionError(f"float {a!r} converted into {self}")

    for domain in (IntegerRing, RationalField):
        monkeypatch.setattr(domain, "from_RealField", no_float)
    systems = [read_system(p) for p in (example1_path, example2_path,
                                        hermite_path)]
    systems.append(gauged_system(systems[1], 0))
    assert [(o.kind, o.provenance) for o in map(solve_liouvillian, systems)] \
        == [("Solved", "DP1"), ("Solved", "DP2"),
            ("NoLiouvillianSolutions", "DP1+DP2"), ("Solved", "DP2")]
    assert [_hyperexp_outcome(C) for C in _HYPEREXP_INPUTS] == hyperexp
