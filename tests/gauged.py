"""Seeded 3 x 3 gauges of a bundled system.

G = U * E1 * E2: U a signed permutation matrix, each E_k elementary with
one off-diagonal entry a + b*x + c*t (|a|, |b|, |c| <= 2).  det G = +-1, so
G^-1 is polynomial and the gauged system

    A' = sigma(G)^-1 A G,        B' = G^-1 (B G - delta(G))

has the solutions G^-1 Y of the source: its verdict is the source's.
:func:`gauged_by` applies a given gauge, such as the three-factor
``EXAMPLE1_GAUGE3`` of example1.
"""

import random

import sympy as sp

from ddsolve.fields import t, x
from ddsolve.procedures import DDSystem
from helpers import mat_reduce, shift


def gauge3(seed: int) -> sp.Matrix:
    """The gauge G drawn with random.Random(seed)."""
    rng = random.Random(seed)
    U = sp.zeros(3, 3)
    for i, j in enumerate(rng.sample(range(3), 3)):
        U[i, j] = rng.choice((1, -1))
    G = U
    for _ in range(2):
        i, j = rng.sample(range(3), 2)
        a, b, c = (rng.randint(-2, 2) for _ in range(3))
        E = sp.eye(3)
        E[i, j] = a + b * x + c * t
        G = G * E
    return G


def gauged_by(system: DDSystem, G: sp.Matrix) -> DDSystem:
    """`system` transformed by the gauge G."""
    Ginv = G.inv()
    A = mat_reduce(shift(Ginv, 1) * system.A * G)
    B = mat_reduce(Ginv * (system.B * G - G.diff(t)))
    return DDSystem(system.n, A, B,
                    assume_irreducible=system.assume_irreducible)


def gauged_system(system: DDSystem, seed: int) -> DDSystem:
    """The 3 x 3 system `system` transformed by :func:`gauge3`."""
    return gauged_by(system, gauge3(seed))


def elementary(i: int, j: int, p) -> sp.Matrix:
    """The 2 x 2 elementary matrix E_ij(p): the identity with p at
    (i, j), i != j, counted from 1."""
    E = sp.eye(2)
    E[i - 1, j - 1] = p
    return E


# a three-factor gauge of example1 with det 1, whose degree bounds meet
# leading matrices of degree about 20 in k and 40 in t
EXAMPLE1_GAUGE3 = (elementary(1, 2, -3 * t - 1) * elementary(2, 1, 3 * x + 2)
                   * elementary(1, 2, 3 * x - 3 * t))
