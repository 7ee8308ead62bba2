import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ddsolve.difftools import (_shift_between, dispersion, leading_beta,
                               shift_class_divisor,
                               shift_classes, split_alpha_beta_power,
                               standard_decompose)
from ddsolve.fields import QQ_XT, k_shift, t, treduce, x
from conftest import random_poly_x
from helpers import (is_standard, reassemble, reference_dispersion,
                     reference_leading_beta, reference_split_alpha_beta_power,
                     reference_standard_decompose, shift)

# difftools works on K; the tests write their cases as expressions
K, E = QQ_XT.from_sympy, QQ_XT.to_sympy


def _shift(p, q):
    """The shift j with q(x) = p(x + j) that shift_classes finds for the
    irreducible polynomials p, q, or None when they fall into two
    classes."""
    _, classes = shift_classes([K(p).numer, K(q).numer])
    if len(classes) != 1:
        return None
    (_, shifts), = classes
    return next(j for j, (_, b) in shifts.items() if b)


# ---------------------------------------------------------------------------
# shift equivalence and dispersion

def test_shift_equivalent_basic():
    assert _shift(x**2 + 1, (x + 3)**2 + 1) == 3
    assert _shift(x**2 + 1, x**2 + 2) is None
    assert _shift(x + t, x + t + 2) == 2


def test_shift_is_an_integer():
    """A shift by 1/2 is no shift of sigma: the factors stay in separate
    classes.  2x^2 + 3x + 2 = p(x + 1/2) for p = 2x^2 + x + 1, and both
    are primitive with the same leading coefficient, so only the
    integrality of j tells them apart."""
    p, q = 2 * x**2 + x + 1, 2 * x**2 + 3 * x + 2
    assert sp.expand(shift(p, sp.Rational(1, 2)) - q) == 0
    assert _shift(p, q) is None
    assert dispersion(K(p * q)) == 0
    assert _shift(x, 2 * x + 1) is None
    assert _shift(x**2 + t, (2 * x + 1)**2 + 4 * t) is None
    assert dispersion(K(x * (2 * x + 1))) == 0
    assert len(shift_class_divisor(K(x * (x + sp.Rational(1, 2))))
               .classes) == 2


def test_shift_between_forms_the_candidate_shift_in_qq():
    """The candidate j of p = 2x + 1, q = 2x + 2 is the quotient 1/2 of two
    integers, formed in QQ: not an integer, so no shift.  For q = 2x + 5
    it is 2."""
    X, _ = QQ_XT.field.ring.gens
    assert _shift_between(2 * X + 1, 2 * X + 2) is None
    assert _shift_between(2 * X + 1, 2 * X + 5) == 2
    assert _shift_between(2 * X + 5, 2 * X + 1) == -2


def test_shift_classes_content_and_monic_bases():
    """The x-free factors and the leading coefficients in x of the others
    go to the content; the bases are monic in x over Q(t)."""
    (c,), classes = shift_classes([K(6 * (t**2 + 1) * (t * x + 1)
                                     * (t * x + t + 1)**2).numer])
    assert c == K(6 * (t**2 + 1) * t**3)
    (base, shifts), = classes
    assert {k_shift(base, j) for j in shifts} == {K(x + 1 / t),
                                                  K(x + 1 + 1 / t)}
    assert sorted(m for m, in shifts.values()) == [1, 2]


def test_dispersion_examples():
    assert dispersion(K(x * (x + 3))) == 3
    assert dispersion(K(x**2 + 1)) == 0
    assert dispersion(K((x**2 + 1) * ((x + 5)**2 + 1) * (x - 2))) == 5


def _brute_dispersion(p):
    """Oracle: largest j > 0 with gcd(p(x), p(x+j)) nonconstant."""
    P = sp.Poly(p, x, domain=sp.QQ)
    best = 0
    for j in range(1, 13):
        if P.gcd(P.shift(j)).degree() > 0:
            best = j
    return best


def test_dispersion_vs_bruteforce_100():
    rng = random.Random(3)
    checked = 0
    while checked < 100:
        base = random_poly_x(rng, max_deg=2)
        if sp.degree(base, x) < 1:
            continue
        shifts = [rng.randint(0, 6) for _ in range(rng.randint(1, 3))]
        p = sp.expand(sp.prod([base.subs(x, x + s) for s in shifts])
                      * random_poly_x(rng, max_deg=1))
        assert dispersion(K(p)) == _brute_dispersion(p), p
        checked += 1


# ---------------------------------------------------------------------------
# standard decomposition: recombination identity on >= 100 random cases

def test_standard_decompose_spec_values():
    sd = standard_decompose(K(x * (x + 1)), 1)
    assert sd.standard_part == K(x**2)
    assert sd.g == K(x)
    sd = standard_decompose(K((x + 2) / x), 1)
    assert sd.standard_part == 1
    assert sd.g == K(x * (x + 1))


def test_standard_decompose_bases_monic_over_q_t():
    """g is a product of bases monic in x over Q(t): t*x + 1 enters it as
    x + 1/t."""
    sd = standard_decompose(K((t * x + 2 * t + 1) / (t * x + 1)), 1)
    assert sd.standard_part == 1
    assert sd.g == K((x + 1 / t) * (x + 1 + 1 / t))
    assert sd.divisor.classes == []


def test_standard_decompose_example_reduction():
    # -(t^2+1)-normalized determinant of the first worked example
    f = K((t**2 - x) * (x**2 + 1)**2 / (t**2 - x - 1))
    sd = standard_decompose(f, 1)
    assert sd.standard_part == K((x**2 + 1)**2)
    # g is canonical up to a constant factor; sigma(g)/g must restore f
    assert k_shift(sd.g) / sd.g * sd.standard_part == f
    c = sd.g * K(t**2 - x)
    assert c.numer.is_ground and c.denom.is_ground


def test_standard_decompose_recombination_100():
    rng = random.Random(5)
    for m in (1, 2, 3):
        for _ in range(35):
            num = sp.prod([shift(random_poly_x(rng, 2), rng.randint(0, 4))
                           for _ in range(rng.randint(1, 2))])
            den = shift(random_poly_x(rng, 1), rng.randint(0, 4))
            f = sp.cancel(num / den)
            if f == 0 or sp.cancel(1 / f) == 0:
                continue
            sd = standard_decompose(K(f), m)
            assert is_standard(sd.standard_part, m), (f, m)
            assert reassemble(sd.divisor) == sd.standard_part, (f, m)
            assert k_shift(sd.g, m) / sd.g * sd.standard_part == K(f), (f, m)


def test_standard_decompose_step_three():
    # x(x+1) is already standard for sigma^3
    sd = standard_decompose(K(x * (x + 1)), 3)
    assert sd.standard_part == K(x * (x + 1))
    assert sd.g == 1


# ---------------------------------------------------------------------------
# alpha^n * beta split

def test_split_alpha_beta_power_example():
    res = split_alpha_beta_power(K(-(t**2 + 1) * (x**2 + 1)**2), 2)
    assert res is not None
    alpha, beta = res
    assert alpha == K(x**2 + 1)
    assert beta == K(-t**2 - 1)


def test_split_alpha_beta_power_roundtrip_random():
    rng = random.Random(9)
    done = 0
    while done < 30:
        a = random_poly_x(rng, 2)
        if sp.degree(a, x) < 1:
            continue
        lc = sp.Poly(a, x).LC()
        a = sp.expand(a / lc)  # alpha must come out monic-normalizable
        n = rng.choice([2, 3])
        b = t**rng.randint(1, 3) + rng.randint(-3, 3)
        res = split_alpha_beta_power(K(sp.expand(a**n * b)), n)
        assert res is not None
        alpha, beta = res
        assert alpha**n * beta == K(a**n * b)
        done += 1


def test_split_alpha_beta_power_rejects():
    assert split_alpha_beta_power(K(x * t + 1), 2) is None
    assert split_alpha_beta_power(K(x**3), 2) is None
    # t-dependent x-factor
    assert split_alpha_beta_power(K((x - t**2)**2), 2) is None


# ---------------------------------------------------------------------------
# leading beta

def test_leading_beta_example():
    # det A = -(t^2+1) x^4 + ...; with the (-1)^(n-1) convention for n = 2
    # the extracted beta is t^2 + 1 (the beta-product itself is -(t^2+1))
    detA = -(x**2 + 1)**2 * (t**4 - t**2 * x + t**2 - x) / (t**2 - x - 1)
    assert leading_beta(K(detA), 2) == K(t**2 + 1)


def test_leading_beta_order_three():
    detA = (x + 1) * (t**2 + x) * x**2 * t**3 / (x * (t**2 + x + 1))
    assert leading_beta(K(detA), 3) == K(t**3)


def test_shift_class_divisor_reassembles():
    f = K(x * (x + 2)**2 / ((x + 5) * (x**2 + 1)))
    scd = shift_class_divisor(f)
    assert reassemble(scd) == f


# ---------------------------------------------------------------------------
# the K routines against the Expr references they replaced

_BASES = [x, 2 * x + 1, x + t, t * x + 1, x**2 + 1, x**2 + t,
          t * x**2 + x + 1, 3 * x**2 - 2]
_CONTENTS = [sp.Integer(1), sp.Integer(-2), t, t**2 + 1, 1 / (t + 1),
             sp.Rational(3, 2) / t]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_shift_classes_match_expr_references(data):
    """f = c(t) * prod b_i(x + s_i)^e_i, bases linear and quadratic in x,
    with and without t, and shifts that may cancel: g, the standard part,
    alpha, beta, leading beta and the dispersion are the references' as
    elements of K, and their canonical expressions are srepr-identical
    (the reference's alpha is in the form of sp.cancel)."""
    m = data.draw(st.sampled_from([1, 2, 3]), label="m")
    n = data.draw(st.sampled_from([2, 3]), label="n")
    scale = n if data.draw(st.booleans(), label="powers of n") else 1
    f = data.draw(st.sampled_from(_CONTENTS), label="c")
    for _ in range(data.draw(st.integers(1, 4), label="factors")):
        b = data.draw(st.sampled_from(_BASES))
        s = data.draw(st.integers(0, 5))
        e = data.draw(st.sampled_from([-2, -1, 1, 2]))
        f = f * shift(b, s) ** (e * scale)
    fK = K(f)
    assert dispersion(fK) == reference_dispersion(f)
    sd = standard_decompose(fK, m)
    g_ref, standard_ref = reference_standard_decompose(f, m)
    for got, ref in ((sd.g, g_ref), (sd.standard_part, standard_ref),
                     (leading_beta(fK, n), reference_leading_beta(f, n))):
        assert got == K(ref)
        assert sp.srepr(E(got)) == sp.srepr(ref)
    split = split_alpha_beta_power(sd.divisor, n)
    split_ref = reference_split_alpha_beta_power(standard_ref, n)
    assert (split is None) == (split_ref is None)
    if split is not None:
        (alpha, beta), (alpha_ref, beta_ref) = split, split_ref
        assert alpha == K(alpha_ref) and beta == K(beta_ref)
        assert sp.srepr(E(alpha)) == sp.srepr(treduce(alpha_ref))
        assert sp.srepr(E(beta)) == sp.srepr(beta_ref)
        assert split_alpha_beta_power(sd.standard_part, n) == split


def test_zero_has_no_shift_classes():
    with pytest.raises(ValueError):
        shift_class_divisor(QQ_XT.zero)
