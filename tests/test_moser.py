import random

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from ddsolve.fields import (AllEqual, Conjugate, Split, mat_inv, mat_reduce,
                            mat_shift, t, x)
from ddsolve.moser import (infinity_expansion, leading_eigendata,
                           moser_reduce, ord_and_moser)
from helpers import mat_eq

Y = sp.Symbol("Y")


def test_infinity_expansion_orders():
    M = sp.Matrix([[x, 1], [1 / x, 2]])
    exp = infinity_expansion(M, 3)
    assert exp.ord == -1
    assert exp.coeffs[0] == sp.Matrix([[1, 0], [0, 0]])
    assert exp.coeffs[1] == sp.Matrix([[0, 1], [0, 2]])
    assert exp.coeffs[2] == sp.Matrix([[0, 0], [1, 0]])


def test_ord_and_moser_values():
    M = sp.Matrix([[x, 0], [0, 1]])
    ordv, m, H0 = ord_and_moser(M)
    assert ordv == -1
    assert m == 1 + sp.Rational(1, 2)  # rank(H0) = 1, n = 2
    assert H0 == sp.Matrix([[1, 0], [0, 0]])


def test_moser_reduce_already_reduced():
    M = sp.Matrix([[1 + 1 / x, 2], [t, 3]])
    rep = moser_reduce(M)
    assert mat_eq(rep.gauge, sp.eye(2))
    assert mat_eq(rep.reduced, M)


def _random_order_zero(rng):
    """ord-0 matrix C0 + C1/x with invertible leading part."""
    while True:
        C0 = sp.Matrix(2, 2, lambda i, j: sp.Integer(rng.randint(-3, 3)))
        if C0.det() != 0:
            break
    C1 = sp.Matrix(2, 2, lambda i, j: sp.Integer(rng.randint(-2, 2))
                   + rng.choice([0, 0, t]))
    return C0 + C1 / x


def test_moser_reduction_50_random_gauged_systems():
    """Undo a planted shearing gauge; check both acceptance properties:
    the exact gauge identity and the eigenvalues-all-one property of the
    leading matrix of sigma(G^-1) G."""
    rng = random.Random(17)
    for _ in range(50):
        R = _random_order_zero(rng)
        T = sp.Matrix([[1, rng.randint(-2, 2)], [0, 1]])
        D = sp.diag(1, x)
        G0 = T * D
        # plant: M = sigma(G0)^-1 R G0, so the gauge G0 recovers R
        M = mat_reduce(mat_inv(mat_shift(G0)) * R * G0)
        rep = moser_reduce(M)
        ordv, _, _ = ord_and_moser(rep.reduced)
        assert ordv == 0
        # gauge identity (also asserted inside moser_reduce)
        lhs = mat_reduce(mat_shift(rep.gauge) * M * mat_inv(rep.gauge))
        assert mat_eq(lhs, rep.reduced)
        # sigma(G^-1) G has leading matrix with all eigenvalues 1
        K = mat_reduce(mat_inv(mat_shift(rep.gauge)) * rep.gauge)
        exp = infinity_expansion(K, 1)
        assert exp.ord == 0
        H0 = exp.coeffs[0]
        cp = sp.expand(H0.charpoly(Y).as_expr())
        assert sp.expand(cp - (Y - 1)**2) == 0


def test_moser_reduce_improves_planted_example():
    # companion-style matrix with removable pole order at infinity
    M = sp.Matrix([[0, 1], [-x * (x + 1), 2 * x + 1]])
    D = sp.diag(1, x)
    gauged = mat_reduce(mat_inv(mat_shift(D)) * M * D)
    before = ord_and_moser(M)[0]
    rep = moser_reduce(M)
    after = ord_and_moser(rep.reduced)[0]
    assert (before, after) == (-2, -1)
    assert moser_reduce(gauged).moser_order == rep.moser_order == 2


@pytest.mark.parametrize("gauge", [
    # the first and the third need Moser's lemma: the plain shearing of
    # ker H0 does not lower the rank
    [[0, 1, 0], [0, 0, 1], [1, -2 * t - x - 1, -t - x - 1]],
    [[0, t - 2, 1],
     [0, (t - 2) * (-2 * t + 2 * x + 2) + 1, -2 * t + 2 * x + 2],
     [1, 0, 0]],
    [[0, 1, -2 * x - 1], [0, 0, 1], [1, 2 * t - 2 * x + 1, 0]],
    [[1, 0, 0], [0, 2 * t - x - 2, (-t + x + 1) * (2 * t - x - 2) + 1],
     [0, 1, -t + x + 1]],
])
def test_moser_reduces_gauged_split_systems(gauge):
    G = sp.Matrix(gauge)
    M = mat_reduce(mat_inv(mat_shift(G)) * sp.diag(t, 2 * t, 3 * t) * G)
    rep = moser_reduce(M)
    ordv, _, H0 = ord_and_moser(rep.reduced)
    assert ordv == 0
    assert sp.expand(H0.charpoly(Y).as_expr()
                     - (Y - t) * (Y - 2 * t) * (Y - 3 * t)) == 0


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3), st.data())
def test_moser_reduce_undoes_planted_unimodular_gauges(n, data):
    """M = sigma(G)^-1 (C0 + C1/x) G, C0 invertible, G a product of
    elementary matrices with entries linear in x and t: moser_reduce
    never stalls, reaches order 0 and finds the leading matrix's
    eigenvalues, those of C0."""
    def matrix(values):
        return sp.Matrix(n, n, data.draw(st.lists(
            st.sampled_from(values), min_size=n * n, max_size=n * n)))

    C0 = matrix([-1, 0, 1, 2])
    assume(C0.det() != 0)
    C1 = matrix([-1, 0, 1, t])
    G = sp.eye(n)
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = data.draw(st.permutations(range(n)))[:2]
        E = sp.eye(n)
        E[i, j] = data.draw(st.sampled_from([x, -x, x + t, 2 * x - 1, t, 1]))
        G = E * G
    M = mat_reduce(mat_inv(mat_shift(G)) * (C0 + C1 / x) * G)
    rep = moser_reduce(M)
    ordv, _, H0 = ord_and_moser(rep.reduced)
    assert ordv == 0
    assert sp.expand(H0.charpoly(Y).as_expr()
                     - C0.charpoly(Y).as_expr()) == 0


def test_leading_eigendata_classification():
    assert isinstance(leading_eigendata(sp.diag(t, t), 2), AllEqual)
    assert isinstance(leading_eigendata(sp.diag(t, t**2), 2), Split)
    H = sp.Matrix([[0, t**2 + 1], [1, 0]])  # eigenvalues +-sqrt(t^2+1)
    assert isinstance(leading_eigendata(H, 2), Conjugate)
