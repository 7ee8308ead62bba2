import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ddsolve.fields import (AllEqual, Conjugate, FieldError, MixedSplit, Split,
                            TRIVIAL_TOWER, delta, dm_delta, dm_from_matrix,
                            dm_shift, dm_sigma_power, dm_to_matrix,
                            factor_in_x, make_tower, mat_delta, mat_eq,
                            mat_inv, mat_reduce, mat_shift,
                            roots_over_coeff_field, series_at_infinity, shift,
                            sigma_power_matrix, t, teq, theta, tinv, treduce,
                            x)
from ddsolve.files import read_system
from conftest import SYSTEMS, random_ratfunc

Y = sp.Symbol("Y")


# ---------------------------------------------------------------------------
# tower arithmetic

def test_trivial_tower_reduce_cancels():
    f = (x**2 - 1) / (x - 1)
    assert treduce(f) == x + 1


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
    c1, c2 = tw.conjugates()
    assert teq(c1, theta, tw) and teq(c2, -theta, tw)
    # both are roots of the minimal polynomial
    for c in (c1, c2):
        assert teq(tw.minpoly.subs(theta, c), 0, tw)


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
    assert isinstance(roots_over_coeff_field((Y - t)**2, Y, 2), AllEqual)
    assert isinstance(roots_over_coeff_field((Y - t) * (Y - t**2), Y, 2),
                      Split)
    assert isinstance(roots_over_coeff_field(Y**2 - (t**2 + 1), Y, 2),
                      Conjugate)
    assert isinstance(
        roots_over_coeff_field((Y**2 - (t**2 + 1)) * (Y - 1), Y, 3),
        MixedSplit)


# ---------------------------------------------------------------------------
# matrices and the cocycle laws (acceptance: m1 + m2 composition, m <= 4)

def test_mat_inv_oracle():
    M = sp.Matrix([[x, 1], [t, x + t]])
    assert mat_eq(mat_reduce(M * mat_inv(M)), sp.eye(2))


def test_mat_inv_singular_raises():
    with pytest.raises(FieldError):
        mat_inv(sp.Matrix([[1, 2], [2, 4]]))


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
    D = dm_sigma_power(A, 3)
    assert dm_to_matrix(D) == sigma_power_matrix(A, 3)
    D[0, 0] = D.domain.zero
    assert dm_sigma_power(A, 3) != D


def test_domain_matrix_helpers_match_expr_operations():
    rng = random.Random(7)
    M = sp.Matrix(2, 2, lambda i, j: random_ratfunc(rng, 2, 3))
    D = dm_from_matrix(M)
    assert dm_to_matrix(D) == mat_reduce(M)
    assert dm_to_matrix(dm_shift(D, 3)) == mat_reduce(mat_shift(M, 3))
    assert dm_to_matrix(dm_delta(D)) == mat_delta(M)


def test_dm_from_matrix_rejects_entries_outside_Qxt():
    with pytest.raises(FieldError):
        dm_from_matrix(sp.Matrix([[theta, 1], [0, 1]]))
