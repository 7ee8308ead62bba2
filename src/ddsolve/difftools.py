"""Dispersion, Z-orbit divisor analysis and sigma^m-standard decompositions
over K = Q(x, t).

A rational function f in x factors into shift classes: groups of monic
irreducible factors that are integer shifts of one another.  Standardness
with respect to sigma^m means the dispersion of numerator*denominator is
< m; every f is sigma^m(g)/g times a standard one, and the decomposition
here picks a representative (all multiplicity of a shift class collapsed
into the window [0, m) above the leftmost shift).  The representative is
canonical for a given f, but not within a similarity class: x and x + 1
are both standard for sigma, and each is its own representative.

:func:`shift_classes`, the one routine behind this module and the
universal denominator of :mod:`ddsolve.ratsol`, works in Z[x, t], the
ring of K's numerators: PolyElement.factor_list() gives the irreducible
factors, and each one involving x becomes a base monic in x over Q(t), an
element of K.  Every function here takes and returns elements of K; the
``Expr`` helpers fields.factor_in_x and fields.series_at_infinity, which
have no caller in the package, stay for the tests and the tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from .fields import QQ_XT, dm_series_at_infinity, k_shift

__all__ = [
    "ShiftClass", "ShiftClassDivisor", "StandardDecomposition",
    "shift_classes", "shift_class_divisor", "dispersion",
    "standard_decompose", "split_alpha_beta_power", "leading_beta",
]

# x and t in Z[x, t], the ring of K's numerators
_X, _T = QQ_XT.field.ring.gens


@dataclass
class ShiftClass:
    base: object    # monic irreducible in x over Q(t), in K, leftmost shift
    entries: list   # sorted [(shift j >= 0, multiplicity != 0)]

    @property
    def over_q(self) -> bool:       # the base has rational coefficients
        return self.base.numer.degree(_T) <= 0


@dataclass
class ShiftClassDivisor:
    content: object                    # x-free cofactor, in K
    classes: list


@dataclass
class StandardDecomposition:
    g: object
    standard_part: object
    divisor: ShiftClassDivisor         # the shift classes of standard_part


def _shift_between(p, q) -> Optional[int]:
    """The integer j with q(x) = p(x + j), or None, for irreducible p and q
    in Z[x, t] normalized alike (as factor_list returns them): a shift
    keeps the leading coefficient a_d in x, so it maps one onto the other
    exactly.  The subleading coefficient of p(x + j) is a_{d-1} + d*j*a_d,
    which gives the candidate j, a quotient of integers formed in QQ."""
    d = p.degree(_X)
    if d != q.degree(_X):
        return None
    diff = q.coeff_wrt(_X, d - 1) - p.coeff_wrt(_X, d - 1)
    j = QQ(diff.LC, d * p.coeff_wrt(_X, d).LC)
    if j.denominator != 1:
        return None
    j = int(j)
    return j if p.compose(_X, _X + j) == q else None


def shift_classes(polys: list):
    """The shift classes of the irreducible factors of nonzero p_0, ...,
    p_k in Z[x, t].

    Returns (contents, classes).  contents[i] is the x-free cofactor of
    p_i in K; classes lists (base, {j: [multiplicity in p_0, ..., in
    p_k]}) with base monic in x over Q(t), in K, and
    p_i = contents[i] * prod base(x + j)^(multiplicity in p_i)."""
    contents = []
    refs = []                          # (reference factor, base, shifts)
    for i, p in enumerate(polys):
        coeff, factors = p.factor_list()
        content = QQ_XT(coeff)
        for fac, mult in factors:
            if fac.degree(_X) <= 0:
                content *= QQ_XT.new(fac) ** mult
                continue
            lead = fac.coeff_wrt(_X, fac.degree(_X))
            content *= QQ_XT.new(lead) ** mult
            for ref, _, shifts in refs:
                j = _shift_between(ref, fac)
                if j is not None:
                    break
            else:
                j, shifts = 0, {}
                refs.append((fac, QQ_XT.new(fac) / QQ_XT.new(lead), shifts))
            shifts.setdefault(j, [0] * len(polys))[i] += mult
        contents.append(content)
    return contents, [(base, shifts) for _, base, shifts in refs]


def _anchored(base, entries) -> Optional[ShiftClass]:
    """The class of base with the nonzero (shift, multiplicity) entries,
    re-anchored at its leftmost shift; None when no entry is left."""
    entries = sorted((j, e) for j, e in entries if e)
    if not entries:
        return None
    j0 = entries[0][0]
    return ShiftClass(k_shift(base, j0), [(j - j0, e) for j, e in entries])


def shift_class_divisor(f) -> ShiftClassDivisor:
    """Factor numerator (positive mult.) and denominator (negative mult.)
    of f in K and group the irreducible factors into shift classes."""
    if not f:
        raise ValueError("shift_class_divisor needs f != 0")
    (cn, cd), raw = shift_classes([f.numer, f.denom])
    classes = [_anchored(base, [(j, a - b) for j, (a, b) in shifts.items()])
               for base, shifts in raw]
    return ShiftClassDivisor(cn / cd, [c for c in classes if c])


def dispersion(P) -> int:
    """Largest j > 0 with gcd(P(x), P(x+j)) nonconstant, else 0, for P in
    K (its numerator and denominator together).  Standardness w.r.t.
    sigma^m is dispersion < m, measured with unit shifts."""
    return max([cls.entries[-1][0]
                for cls in shift_class_divisor(P).classes], default=0)


def standard_decompose(f, m: int) -> StandardDecomposition:
    """Write f = sigma^m(g)/g * f_standard with f_standard standard w.r.t.
    sigma^m, collapsing every shift class into the window [0, m) above its
    leftmost shift.

    Moving a factor uses b(x+r+s*m) = sigma^m(h)/h * b(x+r) with
    h = prod_{i<s} b(x+r+i*m)."""
    scd = shift_class_divisor(f)
    g, standard, classes = QQ_XT.one, scd.content, []
    for cls in scd.classes:
        window: dict[int, int] = {}
        for k, e in cls.entries:
            r, s = k % m, k // m
            for i in range(s):
                g *= k_shift(cls.base, r + i * m) ** e
            window[r] = window.get(r, 0) + e
        kept = _anchored(cls.base, window.items())
        if kept:
            classes.append(kept)
            for j, e in kept.entries:
                standard *= k_shift(kept.base, j) ** e
    return StandardDecomposition(g, standard,
                                 ShiftClassDivisor(scd.content, classes))


def split_alpha_beta_power(a, n: int):
    """Split a standard a in K as alpha(x)^n * beta(t) with alpha in Q(x)
    (monic numerator and denominator) and beta in Q(t); None if impossible.
    a may also be given by its ShiftClassDivisor (the `divisor` of a
    StandardDecomposition), which spares the factorization.

    Requires every x-factor multiplicity divisible by n and every x-factor
    to have constant (rational) coefficients."""
    scd = a if isinstance(a, ShiftClassDivisor) else shift_class_divisor(a)
    alpha = QQ_XT.one
    for cls in scd.classes:
        if not cls.over_q:
            return None
        for j, e in cls.entries:
            if e % n:
                return None
            alpha *= k_shift(cls.base, j) ** (e // n)
    return alpha, scd.content


def leading_beta(detA, n: int):
    """beta(t) in K with detA = (-1)^(n-1) * beta(t) * x^m + lower order
    at x = oo, for nonzero detA in K."""
    _, (C0,) = dm_series_at_infinity(
        DomainMatrix([[detA]], (1, 1), QQ_XT), 1)
    return (-1) ** (n - 1) * C0[0, 0].element
