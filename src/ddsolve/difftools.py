"""Dispersion, Z-orbit divisor analysis and sigma^m-standard decompositions.

A rational function f in x factors into shift classes: groups of monic
irreducible factors that are integer shifts of one another.  Standardness
with respect to sigma^m means the dispersion of numerator*denominator is
< m; every f is sigma^m(g)/g times a standard one, and the decomposition
here picks a canonical representative (all multiplicity of a shift class
collapsed into the window [0, m) above the leftmost shift).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import sympy as sp

from .fields import (TRIVIAL_TOWER, Tower, factor_in_x, series_at_infinity,
                     shift, t, treduce, x)

__all__ = [
    "ShiftClass", "ShiftClassDivisor", "StandardDecomposition",
    "shift_equivalent", "dispersion",
    "standard_decompose", "split_alpha_beta_power", "leading_beta",
]


@dataclass
class ShiftClass:
    base: sp.Expr                      # monic irreducible in x, leftmost shift
    entries: list                      # sorted [(shift j >= 0, multiplicity != 0)]


@dataclass
class ShiftClassDivisor:
    content: sp.Expr                   # x-free cofactor
    classes: list


@dataclass
class StandardDecomposition:
    g: sp.Expr
    standard_part: sp.Expr
    m: int


def shift_equivalent(p, q, tower: Tower = TRIVIAL_TOWER) -> Optional[int]:
    """Return j with q(x) = p(x+j), or None.

    Both inputs monic in x.  The candidate j comes from the subleading
    coefficients (translation shifts it by deg * j); the exact check follows.
    """
    pp = sp.Poly(p, x)
    pq = sp.Poly(q, x)
    d = pp.degree()
    if d != pq.degree():
        return None
    if d == 0:
        return 0 if treduce(p - q, tower) == 0 else None
    cp = pp.all_coeffs()[1] if len(pp.all_coeffs()) > 1 else 0
    cq = pq.all_coeffs()[1] if len(pq.all_coeffs()) > 1 else 0
    cand = sp.cancel((sp.sympify(cq) - sp.sympify(cp)) / d)
    if not cand.is_Integer:
        return None
    j = int(cand)
    if treduce(sp.expand(shift(p, j) - q), tower) == 0:
        return j
    return None


def shift_class_divisor(f) -> ShiftClassDivisor:
    """Factor numerator (positive mult.) and denominator (negative mult.)
    of f and group the irreducible factors into shift classes."""
    f = treduce(f)
    if f == 0:
        raise ValueError("shift_class_divisor needs f != 0")
    num, den = f.as_numer_denom()
    cn, fn = factor_in_x(num)
    cd, fd = factor_in_x(den)
    content = treduce(cn / cd)
    classes: list[ShiftClass] = []
    for fac, mult, sign in ([(p, m, 1) for p, m in fn] + [(p, m, -1) for p, m in fd]):
        for cls in classes:
            j = shift_equivalent(cls.base, fac)
            if j is not None:
                _add_entry(cls, j, sign * mult)
                break
        else:
            classes.append(ShiftClass(fac, [(0, sign * mult)]))
    # re-anchor each class at its leftmost shift
    out = []
    for cls in classes:
        cls.entries = [(j, m) for j, m in cls.entries if m != 0]
        if not cls.entries:
            continue
        jmin = min(j for j, _ in cls.entries)
        cls.base = sp.expand(shift(cls.base, jmin))
        cls.entries = sorted((j - jmin, m) for j, m in cls.entries)
        out.append(cls)
    return ShiftClassDivisor(content, out)


def _add_entry(cls: ShiftClass, j: int, mult: int):
    for i, (jj, mm) in enumerate(cls.entries):
        if jj == j:
            cls.entries[i] = (j, mm + mult)
            return
    cls.entries.append((j, mult))


def dispersion(P) -> int:
    """Largest j > 0 with gcd(P(x), P(x+j)) nonconstant, else 0.

    Standardness w.r.t. sigma^m is dispersion < m, measured with unit
    shifts.
    """
    scd = shift_class_divisor(P)
    disp = 0
    for cls in scd.classes:
        shifts = [j for j, _ in cls.entries]
        if len(shifts) > 1:
            disp = max(disp, max(shifts) - min(shifts))
    return disp


def standard_decompose(f, m: int) -> StandardDecomposition:
    """Write f = sigma^m(g)/g * f_standard with f_standard standard w.r.t.
    sigma^m, collapsing every shift class into the window [0, m) above its
    leftmost shift.

    Moving a factor uses b(x+r+s*m) = sigma^m(h)/h * b(x+r) with
    h = prod_{i<s} b(x+r+i*m).
    """
    scd = shift_class_divisor(f)
    g = sp.Integer(1)
    standard = scd.content
    for cls in scd.classes:
        window: dict[int, int] = {}
        for k, e in cls.entries:
            r = k % m
            s = (k - r) // m
            if s:
                h = sp.prod([shift(cls.base, r + i * m) for i in range(s)])
                g = g * h ** e
            window[r] = window.get(r, 0) + e
        for r, e in sorted(window.items()):
            if e:
                standard = standard * shift(cls.base, r) ** e
    return StandardDecomposition(treduce(g), treduce(standard), m)


def split_alpha_beta_power(a, n: int):
    """Split a standard a as alpha(x)^n * beta(t) with alpha in Q(x)
    (monic numerator and denominator) and beta in Q(t); None if impossible.

    Requires every x-factor multiplicity divisible by n and every x-factor
    to have constant (rational) coefficients.
    """
    scd = shift_class_divisor(a)
    alpha = sp.Integer(1)
    for cls in scd.classes:
        for j, e in cls.entries:
            if e % n != 0:
                return None
            fac = sp.expand(shift(cls.base, j))
            if fac.free_symbols - {x}:
                return None
            alpha = alpha * fac ** (e // n)
    alpha = sp.cancel(alpha)
    beta = treduce(scd.content)
    if beta.free_symbols - {t}:
        return None
    return alpha, beta


def leading_beta(detA, n: int):
    """beta(t) with detA = (-1)^(n-1) * beta(t) * x^m + lower order at x=oo."""
    res = series_at_infinity(detA, 1)
    if res is None:
        raise ValueError("detA must be nonzero")
    _, (c0,) = res
    return treduce((-1) ** (n - 1) * c0)
