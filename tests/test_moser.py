import random

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from ddsolve import moser
from ddsolve.fields import (AllEqual, Conjugate, Split, dm_from_matrix,
                            mat_inv, mat_reduce, t, x)
from ddsolve.moser import infinity_expansion, leading_eigendata
from helpers import (mat_eq, mat_shift, ord_and_moser,
                     reference_leading_eigendata)

Y = sp.Symbol("Y")


def moser_reduce(M: sp.Matrix):
    """moser_reduce on the K-form of M; the report's ord is that of the
    reduced matrix."""
    rep = moser.moser_reduce(dm_from_matrix(M))
    assert rep.ord == ord_and_moser(rep.reduced)[0]
    return rep


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
    def classify(H):
        return leading_eigendata(dm_from_matrix(H))
    assert isinstance(classify(sp.diag(t, t)), AllEqual)
    assert isinstance(classify(sp.diag(t, t**2)), Split)
    H = sp.Matrix([[0, t**2 + 1], [1, 0]])  # eigenvalues +-sqrt(t^2+1)
    assert isinstance(classify(H), Conjugate)


# the classification against the Expr reference: srepr-identical on the
# four shapes for n = 2 and 3, inputs gauged companion matrices over Q(t)

_UNIMODULAR = {2: sp.Matrix([[1, 1], [0, 1]]),
               3: sp.Matrix([[1, 1, 0], [0, 1, 2], [0, 0, 1]])}


@st.composite
def _classified_polys(draw):
    n = draw(st.sampled_from([2, 3]))
    root = st.builds(lambda a, b, c: a + b * t + c / (t + 1),
                     st.integers(-2, 2), st.integers(-1, 1),
                     st.integers(-1, 1))
    k = draw(st.integers(1, 3))
    shape = draw(st.sampled_from(["AllEqual", "Split", "Conjugate",
                                  "MixedSplit"]))
    if shape == "AllEqual":
        return n, (Y - draw(root))**n
    if shape == "Split":
        return n, sp.prod([Y - draw(root) for _ in range(n)])
    if shape == "Conjugate":
        return n, (Y**2 - (t**2 + k) if n == 2 else Y**3 - (t + k))
    return 3, (Y**2 - (t + k)) * (Y - draw(root))


@settings(max_examples=30, deadline=None)
@given(_classified_polys(), st.booleans())
def test_leading_eigendata_matches_reference(case, gauged):
    n, P = case
    H = sp.Matrix.companion(sp.Poly(P, Y))
    if gauged:
        G = _UNIMODULAR[n]
        H = mat_reduce(G * H * G.inv())
    def key(eig):   # srepr of a dataclass would print its fields by str
        return type(eig).__name__, sp.srepr(vars(eig))
    got = leading_eigendata(dm_from_matrix(H))
    assert key(got) == key(reference_leading_eigendata(H, n))
