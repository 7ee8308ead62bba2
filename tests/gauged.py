"""Seeded 3 x 3 gauges of a bundled system.

G = U * E1 * E2: U a signed permutation matrix, each E_k elementary with
one off-diagonal entry a + b*x + c*t (|a|, |b|, |c| <= 2).  det G = +-1, so
G^-1 is polynomial and the gauged system

    A' = sigma(G)^-1 A G,        B' = G^-1 (B G - delta(G))

has the solutions G^-1 Y of the source: its verdict is the source's.
"""

import random

import sympy as sp

from ddsolve.fields import mat_reduce, shift, t, x
from ddsolve.procedures import DDSystem


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


def gauged_system(system: DDSystem, seed: int) -> DDSystem:
    """The 3 x 3 system `system` transformed by :func:`gauge3`."""
    G = gauge3(seed)
    Ginv = G.inv()
    A = mat_reduce(shift(Ginv, 1) * system.A * G)
    B = mat_reduce(Ginv * (system.B * G - G.diff(t)))
    return DDSystem(system.n, A, B,
                    assume_irreducible=system.assume_irreducible)
