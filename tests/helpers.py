"""Checks the tests share: matrix equality over a tower, and standardness
of a rational function with respect to sigma^m."""

import sympy as sp

from ddsolve.difftools import dispersion
from ddsolve.fields import TRIVIAL_TOWER, Tower, treduce


def mat_eq(A: sp.Matrix, B: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> bool:
    return A.shape == B.shape and mat_is_zero(A - B, tower)


def mat_is_zero(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> bool:
    return all(treduce(e, tower) == 0 for e in M)


def is_standard(f, m: int) -> bool:
    num, den = treduce(f).as_numer_denom()
    return dispersion(sp.expand(num * den)) < m
