import random
import time

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy import QQ, ZZ
from sympy.polys.densearith import dup_mul, dup_rem
from sympy.polys.heuristicgcd import heugcd
from sympy.polys.polyerrors import HeuristicGCDFailed
from sympy.polys.euclidtools import dup_invert
from sympy.matrices.utilities import dotprodsimp
from sympy.polys.matrices import DomainMatrix

from ddsolve.fields import (_QQ_XTTH, AllEqual, Conjugate, FieldError,
                            Fractions, MixedSplit, Split, QQ_T, QQ_XT,
                            TRIVIAL_TOWER, _field_element,
                            common_integer_roots, dm_conjugate, dm_clear,
                            dm_delta, dm_delta_part, dm_embed, dm_from_matrix,
                            dm_inv, dm_same, dm_shift, dm_sigma_power,
                            dm_to_matrix, element_expr, factor_in_x, k_shift,
                            make_tower, mat_inv, series_at_infinity,
                            sigma_power_matrix, t, theta, treduce, x)
from ddsolve.files import read_system
from ddsolve.moser import leading_eigendata
from conftest import SYSTEMS, random_ratfunc
from helpers import (delta, integer_roots, mat_delta, mat_eq, mat_reduce,
                     mat_shift, nullspace, rank,
                     reference_common_integer_roots, shift, teq, tinv)

Y = sp.Symbol("Y")
EX1_TOWER = make_tower(theta**2 - (t**2 + 1))


# ---------------------------------------------------------------------------
# tower arithmetic

def test_trivial_tower_reduce_cancels():
    f = (x**2 - 1) / (x - 1)
    assert treduce(f) == x + 1


# ---------------------------------------------------------------------------
# treduce against reference copies of the SymPy-simplification formulas it
# replaced: cancel(together(f)) on the trivial tower; together, Poly in
# theta over K, inversion mod m and a cancelled coefficient on a tower

def _reference_treduce(f, tower=TRIVIAL_TOWER):
    if tower.trivial:
        return sp.cancel(sp.together(sp.sympify(f)))
    K = QQ_XT

    def rep(p):
        return sp.Poly(p, theta, domain=K).rep.to_list()

    mod = rep(tower.minpoly)
    num, den = (dup_rem(rep(p), mod, K)
                for p in sp.together(sp.sympify(f)).as_numer_denom())
    if not den:
        raise ZeroDivisionError("denominator is zero in the tower")
    a = dup_rem(dup_mul(num, dup_invert(den, mod, K), K), mod, K)
    return sp.Add(*(sp.cancel(sp.together(K.to_sympy(c))) * theta**k
                    for k, c in enumerate(reversed(a))))


def _polys(gens):
    """Small polynomials over Q in gens, 0 and constants included."""
    coeff = st.fractions(-3, 3, max_denominator=2).map(sp.Rational)
    term = st.tuples(coeff, *[st.integers(0, 2) for _ in gens]).map(
        lambda c: c[0] * sp.Mul(*(g**e for g, e in zip(gens, c[1:]))))
    return st.lists(term, max_size=3).map(lambda ts: sp.Add(*ts))


def _nonzero(polys):
    return polys.filter(lambda p: p != 0)


XTTH = (x, t, theta)


@settings(max_examples=60, deadline=None)
@given(_polys(XTTH), _nonzero(_polys(XTTH)), _polys(XTTH),
       _nonzero(_polys(XTTH)), st.sampled_from(["+", "*", "/", "1/"]))
def test_treduce_trivial_matches_cancel_reference(n1, d1, n2, d2, op):
    """Rational functions over Q in x, t, theta, theta an indeterminate;
    the denominators have either sign of leading coefficient, and "1/"
    ends in a negative power, which leaves that sign as it is."""
    f, g = n1 / d1, n2 / d2
    e = {"+": lambda: f + g, "*": lambda: f * g,
         "/": lambda: f / g if n2 != 0 else f, "1/": lambda: 1 / d2}[op]()
    assert sp.srepr(treduce(e)) == sp.srepr(_reference_treduce(e))


def _tower_exprs():
    """Expression trees over Q(x, t)(theta): sums, products and integer
    powers (negative ones included) of theta and rational functions."""
    leaf = st.one_of(st.just(theta), _polys((x, t)),
                     st.tuples(_polys((x, t)), _nonzero(_polys((x, t))))
                     .map(lambda nd: nd[0] / nd[1]))
    return st.recursive(leaf, lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda ab: ab[0] + ab[1]),
        st.tuples(sub, sub).map(lambda ab: ab[0] * ab[1]),
        st.tuples(sub, st.integers(-2, 4)).map(lambda be: be[0]**be[1])),
        max_leaves=6)


THETA3_TOWER = make_tower(theta**3 - t)


@settings(max_examples=60, deadline=None)
@given(st.booleans(), _tower_exprs())
def test_treduce_tower_matches_reference(cubic, e):
    tower = THETA3_TOWER if cubic else EX1_TOWER
    if e.has(sp.zoo, sp.nan):
        return
    try:
        want = _reference_treduce(e, tower)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            treduce(e, tower)
        return
    assert sp.srepr(treduce(e, tower)) == sp.srepr(want)


@pytest.mark.parametrize("tower", ["trivial", "ex1"])
@pytest.mark.parametrize("e", [sp.sqrt(2) * x, sp.I, sp.Symbol("_d") * x,
                               sp.zoo, 1 + theta * sp.Symbol("_d")])
def test_treduce_rejects_input_outside_the_field(tower, e):
    with pytest.raises(FieldError):
        treduce(e, TRIVIAL_TOWER if tower == "trivial" else EX1_TOWER)


@settings(max_examples=60, deadline=None)
@given(_tower_exprs())
def test_fractions_match_sympy_conversion(e):
    """fields.Fractions evaluates an expression into Q(x, t, theta) with
    one cancel; it gives the element of sympy's conversion, which cancels
    at every operation, or its ZeroDivisionError."""
    if e.has(sp.zoo, sp.nan):
        return
    try:
        want = _QQ_XTTH.from_sympy(e)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            _field_element(_QQ_XTTH, e, "Q(x, t, theta)")
        return
    ar = Fractions(_QQ_XTTH)
    assert ar.element(ar.from_expr(e)) == want
    assert _field_element(_QQ_XTTH, e, "Q(x, t, theta)") == want


def test_fractions_leave_other_nodes_to_sympy():
    # a Float is not read by Fractions; sympy's conversion makes it exact
    assert _field_element(QQ_XT, sp.Float(0.5) * x, "Q(x, t)") \
        == QQ_XT.from_sympy(x / 2)


def test_treduce_zero_denominator_in_tower():
    with pytest.raises(ZeroDivisionError):
        treduce(1 / (theta**2 - t**2 - 1), EX1_TOWER)


def test_treduce_denominator_sign_rule():
    """A negative power does not normalize the sign of the denominator in
    Q(x, t, theta); treduce does, as cancel does."""
    want = -1 / (2 * x + 2)
    assert sp.srepr(treduce(1 / (-2 * x - 2))) == sp.srepr(want)
    assert sp.srepr(treduce(theta / (-2 * x - 2), EX1_TOWER)) == \
        sp.srepr(want * theta)


def test_treduce_keeps_theta_an_indeterminate_on_trivial_tower():
    m = theta**2 - t**2 - 1
    assert treduce(m) == m
    assert treduce(m / (theta - t)) == sp.cancel(m / (theta - t))


def test_tower_reduction_runs_without_sympy_simplification(monkeypatch):
    """treduce, mat_inv and dm_to_matrix on a tower never call SymPy's
    cancel or together."""
    def forbidden(*args, **kwargs):
        raise AssertionError("SymPy simplification in the field layer")

    M = sp.Matrix([[x, theta], [1 / (t + 1), x * theta + 1]])
    e = (x + theta) / (t - theta) + theta**3 / (x - 1)
    D = dm_from_matrix(M, EX1_TOWER)
    for mod in (sp, sp.polys.polytools, sp.polys.rationaltools):
        for name in ("cancel", "together"):
            monkeypatch.setattr(mod, name, forbidden, raising=False)
    for tower in (TRIVIAL_TOWER, EX1_TOWER):
        treduce(e, tower)
    mat_inv(M, EX1_TOWER)
    dm_to_matrix(D, EX1_TOWER)


def test_make_tower_degree_two():
    tw = make_tower(theta**2 - (t**2 + 1))
    assert tw.degree == 2
    # delta(theta) = t / theta = t * theta / (t^2 + 1)
    assert teq(tw.dtheta, t * theta / (t**2 + 1), tw)


def test_tower_inverse_oracle():
    tw = make_tower(theta**2 - (t**2 + 1))
    f = 1 + t * theta + x
    assert teq(f * tinv(f, tw), 1, tw)


def test_tower_reduce_respects_minpoly():
    tw = make_tower(theta**2 - (t**2 + 1))
    assert teq(theta**2, t**2 + 1, tw)
    assert teq(theta**4, (t**2 + 1)**2, tw)


def test_make_tower_rejects_reducible():
    with pytest.raises(Exception):
        make_tower(theta**2 - t**2)  # (theta-t)(theta+t)


def test_tower_conjugates_degree_two():
    tw = make_tower(theta**2 - (t**2 + 1))
    c1, c2 = map(element_expr, tw.conjugates())
    assert teq(c1, theta, tw) and teq(c2, -theta, tw)
    # both are roots of the minimal polynomial
    for c in (c1, c2):
        assert teq(tw.minpoly.subs(theta, c), 0, tw)


def test_tower_conjugates_degree_three():
    """A cubic over Q: all three roots when the tower is normal, theta
    alone otherwise; over Q(t) theta alone."""
    tw = make_tower(theta**3 - 3 * theta + 1)
    roots = [element_expr(c) for c in tw.conjugates()]
    assert roots == [theta, theta**2 - 2, -theta**2 - theta + 2]
    for c in roots:
        assert teq(tw.minpoly.subs(theta, c), 0, tw)
    for minpoly in (theta**3 - 2, theta**3 - t):
        assert [element_expr(c) for c in
                make_tower(minpoly).conjugates()] == [theta]


def test_delta_on_tower_is_derivation():
    tw = make_tower(theta**2 - (t**2 + 1))
    f = theta * t + x
    g = theta - t
    lhs = delta(treduce(f * g, tw), tw)
    rhs = treduce(delta(f, tw) * g + f * delta(g, tw), tw)
    assert teq(lhs, rhs, tw)


# ---------------------------------------------------------------------------
# sigma-delta commutation: 200 random rational functions

def test_sigma_delta_commute_200():
    rng = random.Random(7)
    for _ in range(200):
        f = random_ratfunc(rng, max_deg=1)
        assert teq(delta(shift(f)), shift(delta(f))), f


def test_sigma_delta_commute_on_tower():
    tw = make_tower(theta**2 - (t**2 + 1))
    rng = random.Random(8)
    for _ in range(5):
        f = random_ratfunc(rng, max_deg=1, coeff=2) \
            + theta * random_ratfunc(rng, max_deg=1, coeff=2)
        assert teq(delta(shift(f), tw), shift(delta(f, tw)), tw)


# ---------------------------------------------------------------------------
# series at infinity

def test_series_at_infinity_polynomial():
    ordv, coeffs = series_at_infinity(3 * x**2 + x, 3)
    assert ordv == -2
    assert coeffs == [3, 1, 0]


def test_series_at_infinity_rational():
    # x/(x+1) = 1 - 1/x + 1/x^2 - ...
    ordv, coeffs = series_at_infinity(x / (x + 1), 4)
    assert ordv == 0
    assert coeffs == [1, -1, 1, -1]


def test_series_at_infinity_zero():
    assert series_at_infinity(sp.Integer(0), 3) is None


def _reference_series_at_infinity(f, terms, tower=TRIVIAL_TOWER):
    """The expansion by substitution x -> 1/xi and SymPy simplification
    that series_at_infinity replaced."""
    f = treduce(f, tower)
    if f == 0:
        return None
    xi = sp.Dummy("xi")
    g = sp.cancel(sp.together(f.subs(x, 1 / xi)))
    num, den = g.as_numer_denom()
    nc = list(reversed(sp.Poly(sp.expand(num), xi).all_coeffs()))
    dc = list(reversed(sp.Poly(sp.expand(den), xi).all_coeffs()))
    vn = next(i for i, c in enumerate(nc) if not teq(c, 0, tower))
    vd = next(i for i, c in enumerate(dc) if not teq(c, 0, tower))
    n0, d0 = nc[vn:], dc[vd:]
    inv0 = tinv(d0[0], tower)
    coeffs = []
    for k in range(terms):
        acc = n0[k] if k < len(n0) else sp.Integer(0)
        for i in range(k):
            dcoef = d0[k - i] if k - i < len(d0) else sp.Integer(0)
            acc = acc - coeffs[i] * dcoef
        coeffs.append(treduce(acc * inv0, tower))
    return vn - vd, coeffs


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["trivial", "ex1", "cubic"]), _tower_exprs(),
       _nonzero(_polys((x, t))), _nonzero(_polys((x, t))),
       st.integers(1, 4))
def test_series_at_infinity_matches_reference(which, e, num, den, terms):
    """Rational functions in x and t on the trivial tower; expression
    trees over the towers theta^2 = t^2 + 1 and theta^3 = t."""
    tower = {"trivial": TRIVIAL_TOWER, "ex1": EX1_TOWER,
             "cubic": THETA3_TOWER}[which]
    if tower.trivial:
        e = num / den
    if e.has(sp.zoo, sp.nan):
        return
    try:
        want = _reference_series_at_infinity(e, terms, tower)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            series_at_infinity(e, terms, tower)
        return
    assert sp.srepr(series_at_infinity(e, terms, tower)) == sp.srepr(want)


def test_series_at_infinity_runs_without_sympy_simplification(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("SymPy simplification in series_at_infinity")

    for mod in (sp, sp.polys.polytools, sp.polys.rationaltools):
        for name in ("cancel", "together"):
            monkeypatch.setattr(mod, name, forbidden, raising=False)
    assert series_at_infinity((x * theta + 1) / (x**2 + t), 3, EX1_TOWER) \
        == (1, [theta, 1, -t * theta])
    assert series_at_infinity(x / (x + 1), 2) == (0, [1, -1])


@settings(max_examples=40, deadline=None)
@given(st.integers(-5, 5), st.integers(-5, 5), st.integers(1, 3))
def test_series_reconstruction(a, b, k):
    f = (x**2 + a * x + b) / x**k
    res = series_at_infinity(f, 8)
    assert res is not None
    ordv, coeffs = res
    xi = sp.Symbol("xi")
    approx = sum(c * xi**(ordv + i) for i, c in enumerate(coeffs))
    diff = sp.cancel(f.subs(x, 1 / xi) - approx)
    # the error has valuation >= ordv + 8
    num, den = sp.fraction(sp.together(diff))
    if num != 0:
        val = sp.Poly(sp.expand(num), xi).monoms()[-1][0] - \
            sp.Poly(sp.expand(den), xi).monoms()[-1][0]
        assert val >= ordv + 8


# ---------------------------------------------------------------------------
# factorization and classification

def test_factor_in_x_splits_content():
    content, factors = factor_in_x(-(t**2 + 1) * (x**2 + 1)**2)
    assert sp.cancel(content + (t**2 + 1)) == 0
    assert factors == [(x**2 + 1, 2)]


def test_factor_in_x_reassembles():
    p = 6 * (x - t)**2 * (x + 1) * t
    content, factors = factor_in_x(p)
    re = content * sp.prod([f**m for f, m in factors])
    assert sp.cancel(re - p) == 0


def test_roots_classification():
    """The classification of a companion matrix is that of its
    polynomial."""
    def classify(P):
        return leading_eigendata(dm_from_matrix(
            sp.Matrix.companion(sp.Poly(P, Y))))
    assert isinstance(classify((Y - t)**2), AllEqual)
    assert isinstance(classify((Y - t) * (Y - t**2)), Split)
    assert isinstance(classify(Y**2 - (t**2 + 1)), Conjugate)
    assert isinstance(classify((Y**2 - (t**2 + 1)) * (Y - 1)), MixedSplit)


# ---------------------------------------------------------------------------
# matrices and the cocycle laws (acceptance: m1 + m2 composition, m <= 4)

def test_mat_inv_oracle():
    M = sp.Matrix([[x, 1], [t, x + t]])
    assert mat_eq(mat_reduce(M * mat_inv(M)), sp.eye(2))


def test_mat_inv_singular_raises():
    with pytest.raises(FieldError):
        mat_inv(sp.Matrix([[1, 2], [2, 4]]))
    with pytest.raises(FieldError):
        mat_inv(sp.Matrix([[1, theta], [theta, t**2 + 1]]), EX1_TOWER)


# ---------------------------------------------------------------------------
# linear algebra over the tower, against SymPy's Matrix routines kept here
# as the reference

def _srepr(vectors):
    return [[sp.srepr(e) for e in v] for v in vectors]


def _tower_entry(with_theta):
    c = st.integers(-1, 1)
    return st.tuples(st.integers(-2, 2), c, c, c).map(
        lambda k: k[0] + k[1] * x + k[2] / (t + 1)
        + (k[3] * theta if with_theta else 0))


@settings(max_examples=25, deadline=None)
@given(st.booleans(), st.integers(0, 3), st.integers(0, 3), st.integers(0, 2),
       st.data())
def test_nullspace_and_rank_match_sympy_reference(over_tower, nrows, ncols,
                                                  k, data):
    """M = U V with inner dimension k, so M may be rank-deficient, zero or
    have no rows or columns.  The reference row reduction keeps its
    entries in the canonical form of treduce, in place of dotprodsimp's
    cancel: the rref, and so the basis, is the same, and an entry over the
    tower no longer grows with unreduced powers of theta."""
    tower = EX1_TOWER if over_tower else TRIVIAL_TOWER
    entry = _tower_entry(over_tower)
    U = sp.Matrix(nrows, k, data.draw(st.lists(entry, min_size=nrows * k,
                                               max_size=nrows * k)))
    V = sp.Matrix(k, ncols, data.draw(st.lists(entry, min_size=k * ncols,
                                               max_size=k * ncols)))
    M = U * V
    with dotprodsimp(False):
        want = [v.applyfunc(lambda e: treduce(e, tower)) for v in M.nullspace(
            simplify=lambda e: treduce(e, tower),
            iszerofunc=lambda e: treduce(e, tower) == 0)]
    assert _srepr(nullspace(M, tower)) == _srepr(want)
    assert rank(M, tower) == ncols - len(want)


def test_integer_roots_are_common_to_every_slice():
    d = sp.Symbol("d")
    assert integer_roots((x - 3) * t + x - 5) == []
    assert integer_roots((x - 3) * (x + 2) * t + (x - 3) / t) == [3]
    assert integer_roots(sp.Integer(0)) is None
    # theta is reduced first: theta^2 - (t^2 + 1) is zero in the tower
    assert integer_roots(d * theta**2 - d * (t**2 + 1), d, EX1_TOWER) is None
    assert integer_roots((d + 1) * (d - 4) * theta**3 + (d - 4) * t, d,
                         EX1_TOWER) == [4]


@st.composite
def _slices_with_integer_roots(draw):
    """1-3 dense polynomials over Q with a few integer roots in common,
    small or huge, and repeated: rational, often huge, content; x^k for
    the root 0; monic and non-monic linear factors, whose rational roots
    are no integer roots; and a cofactor, with small or huge
    coefficients, that may have no integer root at all."""
    ints = st.integers
    root = st.one_of(ints(-30, 30), ints(-10**25, 10**25))
    shared = draw(st.lists(root, max_size=3))
    slices = []
    for _ in range(draw(ints(1, 3))):
        p = [QQ(draw(ints(1, 10**40)) * draw(st.sampled_from([1, -1])),
                draw(ints(1, 10**25)))]
        for r in shared + draw(st.lists(root, max_size=2)):
            p = dup_mul(p, [QQ(1), QQ(-r)], QQ)
        for a, b in draw(st.lists(st.tuples(ints(2, 6), root), max_size=2)):
            p = dup_mul(p, [QQ(a), QQ(b)], QQ)
        coeffs = st.one_of(ints(-100, 100), ints(-10**30, 10**30))
        cofactor = [QQ(c, draw(ints(1, 9))) for c in draw(st.lists(
            coeffs, min_size=1, max_size=3))]
        if cofactor[0]:
            p = dup_mul(p, cofactor, QQ)
        slices.append(p + [QQ(0)] * draw(ints(0, 3)))
    return slices


@settings(max_examples=150, deadline=None)
@given(_slices_with_integer_roots())
def test_common_integer_roots_matches_factoring_reference(slices):
    """Hensel lifting finds the integer roots the factoring reference
    found, in the same order."""
    assert common_integer_roots(slices) == \
        reference_common_integer_roots(slices)


def _dense(expr):
    return [QQ.convert(c) for c in sp.Poly(expr, x).all_coeffs()]


def test_common_integer_roots_examples():
    """Root 0 with multiplicity, a large root, rational non-integer roots,
    no integer root at all, and twelve roots that rule out every prime up
    to 11."""
    assert common_integer_roots([_dense(x**3 * (x - 2) / 7)]) == [0, 2]
    assert common_integer_roots([_dense(x - 10**9)]) == [10**9]
    assert common_integer_roots([_dense((3 * x - 2) * (x + 4))]) == [-4]
    assert common_integer_roots([_dense(x**2 + 1), _dense(x)]) == []
    assert common_integer_roots([_dense(x * (x - 1)), _dense(x - 1)]) == [1]
    assert common_integer_roots(
        [_dense(sp.prod(x - r for r in range(1, 13)))]) == list(range(1, 13))


@pytest.mark.parametrize("expr, roots", [
    (x**2 + 10**30, []),
    ((x - 10**20) * (x + 3), [-3, 10**20]),
    (x**2 - 10**14, [-10**7, 10**7]),
    ((x - 10**40)**2 * (7 * x - 10**39), [10**40]),
])
def test_common_integer_roots_cost_follows_bit_size(expr, roots):
    """Huge coefficients and roots: a scan over the divisors of the
    trailing coefficient would take up to 10^15 steps here; lifting
    takes a few per root."""
    start = time.perf_counter()
    assert common_integer_roots([_dense(expr)]) == roots
    assert time.perf_counter() - start < 0.5


def test_mat_inv_matches_adjugate_formula_over_tower():
    rng = random.Random(13)
    for _ in range(6):
        while True:
            M = sp.Matrix(2, 2, lambda i, j: rng.randint(-2, 2)
                          + rng.randint(-1, 1) * x / (t + rng.randint(1, 2))
                          + rng.randint(-1, 1) * theta)
            det = treduce(M.det(method="berkowitz"), EX1_TOWER)
            if det != 0:
                break
        want = mat_reduce(M.adjugate(method="berkowitz")
                          * tinv(det, EX1_TOWER), EX1_TOWER)
        assert [sp.srepr(e) for e in mat_inv(M, EX1_TOWER)] == \
            [sp.srepr(e) for e in want]


def test_cocycle_composition_law():
    rng = random.Random(11)
    for _ in range(3):
        def entry(i, j):
            return (rng.randint(-3, 3) + rng.randint(-2, 2) * x
                    + rng.randint(-2, 2) * t)
        A = sp.Matrix(2, 2, entry)
        while treduce(A.det()) == 0:
            A = sp.Matrix(2, 2, entry)
        prods = {m: sigma_power_matrix(A, m) for m in range(1, 5)}
        for m1 in range(1, 4):
            for m2 in range(1, 5 - m1):
                lhs = prods[m1 + m2]
                rhs = mat_reduce(mat_shift(prods[m1], m2) * prods[m2])
                assert mat_eq(lhs, rhs), (m1, m2)


def test_sigma_power_matrix_step_one_is_identity_map():
    A = sp.Matrix([[x, 1], [0, t]])
    assert mat_eq(sigma_power_matrix(A, 1), A)


def test_sigma_power_matrix_returns_fresh_copy():
    A = sp.Matrix([[x, 1], [0, t]])
    first = sigma_power_matrix(A, 3)
    want = first.copy()
    first[0, 0] = 0
    again = sigma_power_matrix(A, 3)
    assert again == want
    assert again is not first


def _expr_sigma_power(A, m):
    """The cocycle as a product of sympy matrices, reduced after each step."""
    out = A
    for j in range(1, m):
        out = mat_reduce(mat_shift(A, j) * out)
    return mat_reduce(out)


@pytest.mark.parametrize("name", ["example1", "example2", "hermite"])
def test_sigma_power_matrix_matches_expr_product(name):
    A = read_system(str(SYSTEMS / f"{name}.json")).A
    for m in (2, 3):
        got = sigma_power_matrix(A, m)
        want = _expr_sigma_power(A, m)
        assert [sp.srepr(e) for e in got] == [sp.srepr(e) for e in want], m


def test_dm_sigma_power_is_the_cocycle_over_K():
    A = read_system(str(SYSTEMS / "example2.json")).A
    D = dm_sigma_power(dm_from_matrix(A), 3)
    assert dm_to_matrix(D) == sigma_power_matrix(A, 3)
    D[0, 0] = D.domain.zero
    assert dm_sigma_power(dm_from_matrix(A), 3) != D


def test_domain_matrix_helpers_match_expr_operations():
    rng = random.Random(7)
    M = sp.Matrix(2, 2, lambda i, j: random_ratfunc(rng, 2, 3))
    D = dm_from_matrix(M)
    assert dm_to_matrix(D) == mat_reduce(M)
    assert dm_to_matrix(dm_shift(D, 3)) == mat_reduce(mat_shift(M, 3))
    assert dm_to_matrix(dm_delta(D)) == mat_delta(M)


def test_k_shift_keeps_the_canonical_form():
    """x -> x + j maps a reduced fraction to one that cancel leaves as it
    is: same numerator and denominator, rational coefficients included."""
    rng = random.Random(11)
    for _ in range(200):
        e = QQ_XT.from_sympy(random_ratfunc(rng, 2, 4)
                             * sp.Rational(rng.randint(1, 5), 6))
        j = rng.randint(-3, 3)
        X = e.numer.ring.gens[0]
        shifted = e.new(e.numer.compose(X, X + j), e.denom.compose(X, X + j))
        got = k_shift(e, j)
        assert (got.numer, got.denom) == (shifted.numer, shifted.denom)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["trivial", "ex1", "cubic"]),
       st.lists(_tower_exprs(), min_size=2, max_size=2))
def test_dm_delta_over_a_tower_matches_mat_delta(which, entries):
    """delta on the K-form, delta(a_k) on each coefficient plus
    a'(theta) delta(theta) mod m, read back is mat_delta's matrix."""
    tower = {"trivial": TRIVIAL_TOWER, "ex1": EX1_TOWER,
             "cubic": THETA3_TOWER}[which]
    if tower.trivial:
        entries = [e.subs(theta, x + t) for e in entries]
    M = sp.Matrix([entries])
    if M.has(sp.zoo, sp.nan):
        return
    try:
        D = dm_from_matrix(M, tower)
    except ZeroDivisionError:
        return
    assert sp.srepr(dm_to_matrix(dm_delta(D, tower), tower)) == \
        sp.srepr(mat_delta(M, tower))


def test_tower_k_form_helpers_match_expr_operations():
    """dm_embed is dm_from_matrix over the tower of a matrix over K, and
    dm_conjugate is theta -> conjugate on every entry."""
    M = sp.Matrix([[x / (t + 1), 0], [t * x**2, 1 / (x + t)]])
    conj = EX1_TOWER.conjugates()[1]
    for tower in (TRIVIAL_TOWER, EX1_TOWER, THETA3_TOWER):
        assert dm_embed(dm_from_matrix(M), tower) == dm_from_matrix(M, tower)
    N = sp.Matrix([[theta / x + t, 1], [x, (1 + theta) / (x + theta)]])
    got = dm_to_matrix(dm_conjugate(dm_from_matrix(N, EX1_TOWER), conj,
                                    EX1_TOWER), EX1_TOWER)
    assert sp.srepr(got) == sp.srepr(N.applyfunc(
        lambda e: treduce(e.subs(theta, element_expr(conj)), EX1_TOWER)))


def test_dm_from_matrix_rejects_entries_outside_Qxt():
    with pytest.raises(FieldError):
        dm_from_matrix(sp.Matrix([[theta, 1], [0, 1]]))


def _k_product_sigma_power(D, m):
    """The cocycle as m - 1 products of shifted K-forms over K."""
    out = D
    for j in range(1, m):
        out = dm_shift(D, j) * out
    return out


def _ratfuncs_xt():
    """Small rational functions of x and t whose denominators mix x and t,
    with factors x + t and x + 1 that they may share."""
    return st.tuples(_polys((x, t)), st.sampled_from(
        [1, t, x + 1, x + t, x * t + 1, t * (x + t), x * (x + 1)])).map(
        lambda nd: nd[0] / nd[1])


@settings(max_examples=30, deadline=None)
@given(st.lists(_ratfuncs_xt(), min_size=4, max_size=4), st.integers(1, 5))
def test_dm_sigma_power_matches_the_k_product(entries, m):
    """The fraction-free cocycle is the K-product of shifts, entry by entry
    in the same reduced form."""
    D = dm_from_matrix(sp.Matrix(2, 2, entries))
    got, want = dm_sigma_power(D, m), _k_product_sigma_power(D, m)
    assert got == want
    assert [(e.numer, e.denom) for e in got.to_list_flat()] == \
        [(e.numer, e.denom) for e in want.to_list_flat()]


@pytest.mark.parametrize("m", range(1, 6))
def test_dm_sigma_power_telescopes(m):
    """Shifted denominators that cancel against later numerators: the
    cocycle of diag(x/(x + 1), t/(x + t)) has entries x/(x + m) and
    t^m / ((x + t) ... (x + t + m - 1))."""
    D = dm_from_matrix(sp.diag(x / (x + 1), t / (x + t)))
    want = sp.diag(x / (x + m), t**m / sp.prod([x + t + j for j in range(m)]))
    got = dm_sigma_power(D, m)
    assert got == dm_from_matrix(want)
    assert got == _k_product_sigma_power(D, m)


# ---------------------------------------------------------------------------
# fraction-free identities: dm_same and dm_delta_part against the products
# over K they replace

def _tower_entries(k):
    """k elements a + b*theta of the degree-2 tower, a and b from
    _ratfuncs_xt."""
    return st.lists(st.tuples(_ratfuncs_xt(), _ratfuncs_xt()).map(
        lambda ab: ab[0] + ab[1] * theta), min_size=k, max_size=k)


def _k_sum(side):
    """A side of dm_same evaluated by products and sums over K."""
    total = None
    for term in side:
        prod = None
        for f in term:
            if isinstance(f, DomainMatrix):
                prod = f if prod is None else prod * f
            else:
                prod = prod.mul(f)
        total = prod if total is None else total + prod
    return total


def _perturbed(D, i, j):
    """D with 1 added to one entry, (i, j) taken modulo the shape."""
    rows = D.to_list()
    i, j = i % D.shape[0], j % D.shape[1]
    rows[i][j] += QQ_XT.one
    return DomainMatrix(rows, D.shape, QQ_XT)


@settings(max_examples=12, deadline=None)
@given(_tower_entries(4), _tower_entries(2), _tower_entries(1),
       _ratfuncs_xt(), st.integers(0, 7), st.integers(0, 7))
def test_dm_same_agrees_with_the_k_product_comparison(a, w, c, k, i, j):
    """sigma(W) C + W k against A W and against its own K-product sum, on
    K-forms over the degree-2 tower (k in K); one perturbed entry makes
    the identity fail."""
    A = dm_from_matrix(sp.Matrix(2, 2, a), EX1_TOWER)
    W = dm_from_matrix(sp.Matrix(2, 1, w), EX1_TOWER)
    C = dm_from_matrix(sp.Matrix(1, 1, c), EX1_TOWER)
    k = QQ_XT.from_sympy(k)
    lhs = [(dm_shift(W), C), (W, k)]
    for rhs in ([(A, W)], [(_k_sum(lhs),)],
                [(_perturbed(_k_sum(lhs), i, j),)]):
        assert dm_same(lhs, rhs) == (_k_sum(lhs) == _k_sum(rhs))
    assert dm_same(lhs, [(_k_sum(lhs),)])
    assert not dm_same(lhs, [(_perturbed(_k_sum(lhs), i, j),)])


@settings(max_examples=12, deadline=None)
@given(st.booleans(),
       st.lists(st.tuples(_polys((x, t)), st.integers(-2, 2)),
                min_size=4, max_size=4),
       st.lists(_ratfuncs_xt(), min_size=4, max_size=4))
def test_dm_delta_part_matches_the_k_products(over_tower, g, b):
    """G^-1 (B G - delta(G)) on K-forms over the trivial or the degree-2
    tower, entry by entry in the same reduced form; G has entries
    p + c*theta, p in Q[x, t] and c in Z (c dropped on the trivial
    tower)."""
    tower = EX1_TOWER if over_tower else TRIVIAL_TOWER
    th = theta if over_tower else 0
    G = dm_from_matrix(sp.Matrix(2, 2, [p + c * th for p, c in g]), tower)
    B = dm_from_matrix(sp.Matrix(2, 2, b), tower)
    dG = dm_delta(G, tower)
    if G.det() == 0:
        with pytest.raises(FieldError):
            dm_delta_part(G, B, dG)
        return
    got, want = dm_delta_part(G, B, dG), dm_inv(G) * (B * G - dG)
    assert [(e.numer, e.denom) for e in got.to_list_flat()] == \
        [(e.numer, e.denom) for e in want.to_list_flat()]


@pytest.mark.parametrize("tower", [TRIVIAL_TOWER, EX1_TOWER])
def test_dm_delta_part_rejects_a_singular_gauge(tower):
    """The second row is the first times x/t (times theta on the
    tower)."""
    f = x / t if tower.trivial else theta
    G = dm_from_matrix(sp.Matrix([[1, x + t], [f, f * (x + t)]]), tower)
    B = dm_from_matrix(sp.Matrix([[1 / t, x], [0, 1]]), tower)
    with pytest.raises(FieldError):
        dm_delta_part(G, B, dm_delta(G, tower))


# ---------------------------------------------------------------------------
# K and Q(t) over Z

def test_k_and_q_t_have_integer_coefficients():
    assert QQ_XT.field.ring.domain == ZZ
    assert QQ_T.field.ring.domain == ZZ
    assert _QQ_XTTH.field.ring.domain == ZZ


def test_dm_clear_keeps_the_integer_content():
    """The lcm of the denominators 9 and 12 is 36 over Z (a monic lcm
    over Q would be 1): N = diag(4, 3) and N / q is D exactly."""
    D = dm_from_matrix(sp.diag(sp.Rational(1, 9), sp.Rational(1, 12)))
    q, N = dm_clear(D)
    assert q == QQ_XT.field.ring(36)
    assert N.to_Matrix() == sp.diag(4, 3)
    assert N.convert_to(QQ_XT).mul(QQ_XT.one / QQ_XT.new(q)) == D
    row = dm_from_matrix(sp.Matrix([[1 / (2 * x), 1 / (-3 * x)]]))
    assert dm_clear(row)[0] == 6 * QQ_XT.field.ring.gens[0]


def test_k_gcd_survives_a_heuristic_gcd_failure():
    """SymPy's heuristic gcd raises HeuristicGCDFailed on this pair, met
    in a lift's products of shifts; K falls back to a PRS gcd, so
    F * (1/G) is F/G, as sp.cancel has it."""
    F = (2 * t**12 - 25 * t**11 + 108 * t**10 - 235 * t**9 + 290 * t**8
         - 207 * t**7 + 80 * t**6 - 13 * t**5)
    G = (t**11 + 99 * t**10 + 4400 * t**9 + 115830 * t**8 + 2005773 * t**7
         + 23977107 * t**6 + 201790490 * t**5 + 1194928020 * t**4
         + 4876196776 * t**3 + 13051234944 * t**2 + 20606463360 * t
         + 14529715200)
    f, g = QQ_XT.from_sympy(F), QQ_XT.from_sympy(G)
    with pytest.raises(HeuristicGCDFailed):
        heugcd(f.numer, g.numer)
    got = f * (1 / g)
    assert (got.numer, got.denom) == (f.numer, g.numer)
    assert QQ_XT.to_sympy(got) == sp.cancel(F / G)


# polynomials in Z[x, t] with x-degree <= 2, t-degree <= 1 and
# coefficients in [-3, 3]; sets of 1 or 2 shifts x -> x + j, j <= 4, of a
# product's own factor, and of at most one of the other's
_XT_POLYS = st.lists(st.integers(-3, 3), min_size=6, max_size=6).map(
    lambda cs: sp.Add(*(c * x**(k // 2) * t**(k % 2)
                        for k, c in enumerate(cs)))).filter(
    lambda p: p.has(x))
_SHIFTS, _SOME_SHIFTS = (st.lists(st.integers(0, 4), min_size=k,
                                  max_size=k + 1, unique=True)
                         for k in (0, 1))


@settings(max_examples=20, deadline=None)
@given(_XT_POLYS, _XT_POLYS, _SOME_SHIFTS, _SHIFTS, _SOME_SHIFTS, _SHIFTS)
def test_k_quotient_of_shifted_products_is_cancel(p, q, fp, fq, gq, gp):
    """F = prod p(x + j) prod q(x + k) and G = prod q(x + j) prod p(x + k),
    products of shifts as a lift forms them, sharing some factors.  In K,
    F * (1/G) is sp.cancel(F/G): the same value, and the same numerator
    and denominator, cancelled over Z with the denominator's leading
    coefficient positive."""
    F, G = (sp.expand(sp.Mul(*(a.subs(x, x + j) for j in ja),
                             *(b.subs(x, x + j) for j in jb)))
            for a, ja, b, jb in ((p, fp, q, fq), (q, gq, p, gp)))
    got = QQ_XT.from_sympy(F) * (1 / QQ_XT.from_sympy(G))
    num, den = got.numer.as_expr(), got.denom.as_expr()
    assert sp.Poly(num * G - F * den, x, t).is_zero
    assert (num, den) == tuple(map(sp.expand, sp.fraction(sp.cancel(F / G))))
