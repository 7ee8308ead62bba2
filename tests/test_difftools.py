import random

import pytest
import sympy as sp

from ddsolve.difftools import (dispersion, leading_beta, shift_class_divisor,
                               shift_equivalent, split_alpha_beta_power,
                               standard_decompose)
from ddsolve.fields import shift, t, teq, x
from conftest import random_poly_x
from helpers import is_standard, reassemble


# ---------------------------------------------------------------------------
# shift equivalence and dispersion

def test_shift_equivalent_basic():
    assert shift_equivalent(x**2 + 1, (x + 3)**2 + 1) == 3
    assert shift_equivalent(x**2 + 1, x**2 + 2) is None
    assert shift_equivalent(x + t, x + t + 2) == 2


def test_dispersion_examples():
    assert dispersion(x * (x + 3)) == 3
    assert dispersion(x**2 + 1) == 0
    assert dispersion((x**2 + 1) * ((x + 5)**2 + 1) * (x - 2)) == 5


def _brute_dispersion(p):
    """Oracle: largest j > 0 with gcd(p(x), p(x+j)) nonconstant."""
    best = 0
    for j in range(1, 13):
        g = sp.gcd(sp.expand(p), sp.expand(p.subs(x, x + j)))
        if sp.degree(g, x) > 0:
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
        assert dispersion(p) == _brute_dispersion(p), p
        checked += 1


# ---------------------------------------------------------------------------
# standard decomposition: recombination identity on >= 100 random cases

def test_standard_decompose_spec_values():
    sd = standard_decompose(x * (x + 1), 1)
    assert sp.cancel(sd.standard_part - x**2) == 0
    assert sp.cancel(sd.g - x) == 0
    sd = standard_decompose((x + 2) / x, 1)
    assert sp.cancel(sd.standard_part - 1) == 0
    assert sp.cancel(sd.g - x * (x + 1)) == 0


def test_standard_decompose_example_reduction():
    # -(t^2+1)-normalized determinant of the first worked example
    f = (t**2 - x) * (x**2 + 1)**2 / (t**2 - x - 1)
    sd = standard_decompose(f, 1)
    assert sp.cancel(sd.standard_part - (x**2 + 1)**2) == 0
    # g is canonical up to a constant factor; sigma(g)/g must restore f
    assert sp.cancel(shift(sd.g) / sd.g * sd.standard_part - f) == 0
    assert sp.cancel(sd.g * (t**2 - x)).is_constant()


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
            sd = standard_decompose(f, m)
            assert is_standard(sd.standard_part, m), (f, m)
            recombined = sp.cancel(
                shift(sd.g, m) / sd.g * sd.standard_part)
            assert sp.cancel(recombined - f) == 0, (f, m)


def test_standard_decompose_step_three():
    # x(x+1) is already standard for sigma^3
    sd = standard_decompose(x * (x + 1), 3)
    assert sp.cancel(sd.standard_part - x * (x + 1)) == 0
    assert sp.cancel(sd.g - 1) == 0


# ---------------------------------------------------------------------------
# alpha^n * beta split

def test_split_alpha_beta_power_example():
    res = split_alpha_beta_power(-(t**2 + 1) * (x**2 + 1)**2, 2)
    assert res is not None
    alpha, beta = res
    assert sp.cancel(alpha - (x**2 + 1)) == 0
    assert sp.cancel(beta + t**2 + 1) == 0


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
        res = split_alpha_beta_power(sp.expand(a**n * b), n)
        assert res is not None
        alpha, beta = res
        assert sp.cancel(alpha**n * beta - a**n * b) == 0
        done += 1


def test_split_alpha_beta_power_rejects():
    assert split_alpha_beta_power(x * t + 1, 2) is None
    assert split_alpha_beta_power(x**3, 2) is None
    # t-dependent x-factor
    assert split_alpha_beta_power((x - t**2)**2, 2) is None


# ---------------------------------------------------------------------------
# leading beta

def test_leading_beta_example():
    # det A = -(t^2+1) x^4 + ...; with the (-1)^(n-1) convention for n = 2
    # the extracted beta is t^2 + 1 (the beta-product itself is -(t^2+1))
    detA = -(x**2 + 1)**2 * (t**4 - t**2 * x + t**2 - x) / (t**2 - x - 1)
    assert sp.cancel(leading_beta(detA, 2) - (t**2 + 1)) == 0


def test_leading_beta_order_three():
    detA = (x + 1) * (t**2 + x) * x**2 * t**3 / (x * (t**2 + x + 1))
    assert sp.cancel(leading_beta(detA, 3) - t**3) == 0


def test_shift_class_divisor_reassembles():
    f = x * (x + 2)**2 / ((x + 5) * (x**2 + 1))
    scd = shift_class_divisor(f)
    assert sp.cancel(reassemble(scd) - f) == 0
