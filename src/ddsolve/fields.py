"""Exact arithmetic for the coefficient tower Q < Q(t) < Q(t)[theta]/(m(theta)).

Everything is represented as sympy expressions in the global symbols x, t,
theta.  A :class:`Tower` carries the minimal polynomial of theta over Q(t)
(or None for the trivial tower) together with delta(theta), obtained by
implicit differentiation.  Canonical forms are produced by :func:`treduce`:
a polynomial in theta of degree < deg(m) whose coefficients are cancelled
rational functions of x and t.

The shift sigma acts by x -> x+1 and the derivation delta by d/dt with
delta(x) = 0.

Exact linear algebra over the trivial tower runs on
:class:`~sympy.polys.matrices.DomainMatrix` over K = Q(x, t) (``QQ_XT``):
:func:`dm_from_matrix` and :func:`dm_to_matrix` convert at the boundary,
and :func:`dm_shift`, :func:`dm_delta` and :func:`dm_inv` act on K.
System matrices lie in K, so their cocycle (:func:`dm_sigma_power`,
:func:`sigma_power_matrix`) is always formed over K.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import sympy as sp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError
from sympy.polys.polyerrors import CoercionFailed

x, t, theta = sp.symbols("x t theta")

# K = Q(x, t), the coefficient field of the trivial tower
QQ_XT = QQ.frac_field(x, t)
_X = QQ_XT.field.ring.gens[0]   # x in the ring of numerators
_T = QQ_XT.gens[1]              # t in K

__all__ = [
    "x", "t", "theta", "Tower", "TRIVIAL_TOWER", "make_tower",
    "treduce", "teq", "tinv", "shift", "delta",
    "series_at_infinity", "factor_in_x", "roots_over_coeff_field",
    "AllEqual", "Split", "Conjugate", "MixedSplit",
    "mat_reduce", "mat_shift", "mat_delta", "mat_inv", "mat_eq", "mat_is_zero",
    "sigma_power_matrix", "dm_from_matrix", "dm_to_matrix", "dm_shift",
    "dm_delta", "dm_inv", "dm_sigma_power",
]


class FieldError(Exception):
    pass


@dataclass(frozen=True)
class Tower:
    """Q(t)[theta]/(minpoly); minpoly None encodes the trivial tower Q(t)."""

    minpoly: Optional[sp.Expr]  # monic polynomial in theta over Q(t), or None
    dtheta: sp.Expr             # delta(theta) as an element of the tower
    degree: int

    @property
    def trivial(self) -> bool:
        return self.minpoly is None

    def conjugates(self) -> list[sp.Expr]:
        """All roots of minpoly that lie inside the tower itself (theta first).

        For degree 2 this is always both roots; for higher degree we search
        for linear-in-theta roots and may come up short.
        """
        if self.trivial:
            return []
        if self.degree == 2:
            # theta' = -a1 - theta for m = Y^2 + a1*Y + a0
            a1 = sp.Poly(self.minpoly, theta).all_coeffs()[1]
            return [theta, treduce(-a1 - theta, self)]
        found = [theta]
        # linear-substitution root search: candidates u + v*theta
        u, v = sp.symbols("_u _v")
        cand = treduce(self.minpoly.subs(theta, u + v * theta), self)
        sols = sp.solve(
            [sp.numer(sp.cancel(c)) for c in sp.Poly(cand, theta).all_coeffs()],
            [u, v], dict=True)
        for s in sols:
            if v in s and u in s:
                root = treduce(s[u] + s[v] * theta, self)
                if not any(teq(root, r, self) for r in found):
                    found.append(root)
        return found


TRIVIAL_TOWER = Tower(None, sp.Integer(0), 1)


def _theta_poly(expr, tower: Tower) -> sp.Poly:
    return sp.Poly(expr, theta, domain=QQ.frac_field(x, t))


def make_tower(minpoly: sp.Expr, var: sp.Symbol = None) -> Tower:
    """Build the tower Q(t)[theta]/(m) for a monic irreducible m over Q(t).

    Degree-1 input returns the trivial tower.  dtheta is computed from
    m'(theta)*dtheta + (dm/dt)(theta) = 0.
    """
    if var is not None and var is not theta:
        minpoly = minpoly.subs(var, theta)
    P = sp.Poly(sp.together(minpoly), theta, domain=QQ.frac_field(t))
    if not P.LC() == 1:
        raise FieldError("minimal polynomial must be monic")
    if P.degree() == 1:
        # theta is rational: Y - r; the tower is trivial
        return TRIVIAL_TOWER
    factors = P.factor_list()[1]
    if len(factors) != 1 or factors[0][1] != 1:
        raise FieldError("minimal polynomial is reducible over Q(t)")
    tower = Tower(P.as_expr(), sp.Integer(0), P.degree())
    mprime = sp.diff(tower.minpoly, theta)
    mdt = sp.diff(tower.minpoly, t)
    dtheta = treduce(-mdt * tinv(mprime, tower), tower)
    return Tower(tower.minpoly, dtheta, tower.degree)


def treduce(f, tower: Tower = TRIVIAL_TOWER):
    """Canonical form of a tower-valued rational function of x."""
    f = sp.cancel(sp.together(sp.sympify(f)))
    if tower.trivial:
        return f
    num, den = f.as_numer_denom()
    mp = _theta_poly(tower.minpoly, tower)
    pn = _theta_poly(num, tower).rem(mp)
    pd = _theta_poly(den, tower).rem(mp)
    if pd.is_zero:
        raise ZeroDivisionError("denominator is zero in the tower")
    if pn.is_zero:
        return sp.Integer(0)
    s, _, h = pd.gcdex(mp)
    # m irreducible and pd nonzero => gcd is 1
    if not h.is_one:
        raise FieldError("minimal polynomial not irreducible over Q(x,t)?")
    res = (pn * s).rem(mp)
    dom = res.domain
    out = sp.Integer(0)
    for (k,), c in res.terms():
        out += sp.cancel(dom.to_sympy(c)) * theta**k
    return out


def teq(a, b, tower: Tower = TRIVIAL_TOWER) -> bool:
    return treduce(sp.sympify(a) - sp.sympify(b), tower) == 0


def tinv(f, tower: Tower = TRIVIAL_TOWER):
    return treduce(1 / sp.sympify(f), tower)


def shift(f, j: int = 1):
    """sigma^j: f(x) -> f(x+j)."""
    return sp.sympify(f).subs(x, x + j)


def delta(f, tower: Tower = TRIVIAL_TOWER):
    """d/dt with delta(x) = 0 and delta(theta) = tower.dtheta."""
    f = sp.sympify(f)
    df = sp.diff(f, t)
    if not tower.trivial:
        df = df + sp.diff(f, theta) * tower.dtheta
    return treduce(df, tower)


def series_at_infinity(f, terms: int, tower: Tower = TRIVIAL_TOWER):
    """Expansion f = (1/x)^ord * (c0 + c1/x + ...), exact.

    Returns (ord, [c0, ..., c_{terms-1}]) or None for f = 0.
    """
    if terms < 1:
        raise ValueError("terms >= 1 required")
    f = treduce(f, tower)
    if f == 0:
        return None
    xi = sp.Dummy("xi")
    g = sp.cancel(sp.together(f.subs(x, 1 / xi)))
    num, den = g.as_numer_denom()
    pn = sp.Poly(sp.expand(num), xi)
    pd = sp.Poly(sp.expand(den), xi)
    # trailing (valuation) coefficients
    nc = list(reversed(pn.all_coeffs()))  # nc[k] = coeff of xi^k
    dc = list(reversed(pd.all_coeffs()))
    vn = next(i for i, c in enumerate(nc) if not teq(c, 0, tower))
    vd = next(i for i, c in enumerate(dc) if not teq(c, 0, tower))
    ord_ = vn - vd
    n0 = nc[vn:]
    d0 = dc[vd:]
    inv0 = tinv(d0[0], tower)
    coeffs = []
    for k in range(terms):
        acc = n0[k] if k < len(n0) else sp.Integer(0)
        for i in range(k):
            dcoef = d0[k - i] if k - i < len(d0) else sp.Integer(0)
            acc = acc - coeffs[i] * dcoef
        coeffs.append(treduce(acc * inv0, tower))
    return ord_, coeffs


def factor_in_x(p, tower: Tower = TRIVIAL_TOWER):
    """Factor a polynomial in x over the coefficient field.

    Returns (content, [(monic irreducible in x, multiplicity), ...]) with
    content * prod(factor^mult) = p.  With a nontrivial tower the factors
    are only guaranteed irreducible over Q(t)(theta-as-symbol); that is
    sufficient for the shift-class analysis built on top.
    """
    p = treduce(p, tower)
    if p == 0:
        raise FieldError("factor_in_x needs a nonzero polynomial")
    num, den = p.as_numer_denom()
    if x in den.free_symbols:
        raise FieldError("not a polynomial in x over the coefficient field")
    if theta in num.free_symbols:
        coeff, raw = sp.factor_list(num)
        factors = []
        content = coeff / den
        for fac, mult in raw:
            if x not in fac.free_symbols:
                content = content * fac**mult
                continue
            lc = sp.Poly(fac, x).LC()
            content = content * lc**mult
            factors.append((sp.expand(sp.cancel(fac / lc)), mult))
        return treduce(content, tower), factors
    dom = QQ.frac_field(t)
    P = sp.Poly(num, x, domain=dom)
    coeff, raw = P.factor_list()
    content = sp.cancel(dom.to_sympy(coeff) / den)
    factors = []
    for fac, mult in raw:
        lc = fac.LC()
        content = sp.cancel(content * dom.to_sympy(lc)**mult)
        factors.append((sp.expand((fac.monic()).as_expr()), mult))
    return content, factors


# ---------------------------------------------------------------------------
# classification of the beta-polynomial over Q(t)

@dataclass(frozen=True)
class AllEqual:
    root: sp.Expr


@dataclass(frozen=True)
class Split:
    roots: tuple


@dataclass(frozen=True)
class Conjugate:
    minpoly: sp.Expr  # irreducible over Q(t), in the classification variable


@dataclass(frozen=True)
class MixedSplit:
    factors: tuple


def roots_over_coeff_field(P, var: sp.Symbol, n: int):
    """Classify a degree-n polynomial over Q(t): AllEqual / Split / Conjugate.

    Any other factorization shape is reported as MixedSplit (the caller
    exits; n prime rules these out for genuine beta-polynomials).
    """
    Pp = sp.Poly(sp.cancel(sp.together(P)), var, domain=QQ.frac_field(t))
    if Pp.degree() != n:
        raise FieldError("degree mismatch in roots_over_coeff_field")
    _, raw = Pp.factor_list()
    if len(raw) == 1 and raw[0][0].degree() == n and raw[0][1] == 1 and n > 1:
        return Conjugate(raw[0][0].monic().as_expr())
    if all(fac.degree() == 1 for fac, _ in raw):
        roots = []
        dom = Pp.domain
        for fac, mult in raw:
            _, b = fac.monic().all_coeffs()
            r = sp.cancel(-dom.to_sympy(b))
            roots.extend([r] * mult)
        if all(sp.cancel(r - roots[0]) == 0 for r in roots):
            return AllEqual(roots[0])
        return Split(tuple(roots))
    return MixedSplit(tuple((fac.monic().as_expr(), mult) for fac, mult in raw))


# ---------------------------------------------------------------------------
# matrix helpers

def mat_reduce(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> sp.Matrix:
    return M.applyfunc(lambda e: treduce(e, tower))


def mat_shift(M: sp.Matrix, j: int = 1) -> sp.Matrix:
    return M.applyfunc(lambda e: shift(e, j))


def mat_delta(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> sp.Matrix:
    return M.applyfunc(lambda e: delta(e, tower))


def mat_inv(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> sp.Matrix:
    if tower.trivial:
        try:
            dm = DomainMatrix.from_Matrix(M, field=True)
            if dm.domain.is_Field and not dm.domain.is_EX:
                return dm_inv(dm).to_Matrix()
        except (CoercionFailed, sp.polys.polyerrors.OptionError, ValueError):
            pass
    det = treduce(M.det(method="berkowitz"), tower)
    if det == 0:
        raise FieldError("matrix not invertible")
    adj = M.adjugate(method="berkowitz")
    inv_det = tinv(det, tower)
    return mat_reduce(adj * inv_det, tower)


def dm_from_matrix(M: sp.Matrix) -> DomainMatrix:
    """M as a DomainMatrix over K = Q(x, t); FieldError for an entry
    outside K."""
    def element(e):
        try:
            return QQ_XT.from_sympy(e)
        except (CoercionFailed, ValueError):
            raise FieldError(f"entry not in Q(x, t): {e}")

    return DomainMatrix([[element(e) for e in row] for row in M.tolist()],
                        M.shape, QQ_XT)


def dm_to_matrix(D: DomainMatrix) -> sp.Matrix:
    """Entries of a DomainMatrix over K in the canonical form of treduce."""
    return sp.Matrix(*D.shape, [treduce(QQ_XT.to_sympy(e))
                                for e in D.to_list_flat()])


def dm_shift(D: DomainMatrix, j: int = 1) -> DomainMatrix:
    """sigma^j over K: x -> x + j in every entry."""
    xj = _X + j
    return D.applyfunc(lambda e: e.new(e.numer.compose(_X, xj),
                                       e.denom.compose(_X, xj)))


def dm_delta(D: DomainMatrix) -> DomainMatrix:
    """d/dt over K, entrywise."""
    return D.applyfunc(lambda e: e.diff(_T))


def dm_inv(D: DomainMatrix) -> DomainMatrix:
    """D^-1; FieldError when D is singular."""
    try:
        return D.inv()
    except DMNonInvertibleMatrixError:
        raise FieldError("matrix not invertible")


# cocycles of the systems of one solve, with room for a few solves
_SIGMA_POWER_CACHE_SIZE = 32


def sigma_power_matrix(A: sp.Matrix, m: int) -> sp.Matrix:
    """Cocycle product A_m = sigma^{m-1}(A) ... sigma(A) A (m >= 1) of a
    system matrix A over K = Q(x, t), in the canonical form of treduce.

    Memoized on (A, m); every call returns a fresh mutable copy."""
    if m < 1:
        raise ValueError("m >= 1 required")
    return sp.Matrix(_sigma_power_expr(sp.ImmutableMatrix(A), m))


def dm_sigma_power(A: sp.Matrix, m: int) -> DomainMatrix:
    """The cocycle A_m of :func:`sigma_power_matrix` as a DomainMatrix over
    K, sharing its memo; every call returns a fresh copy."""
    if m < 1:
        raise ValueError("m >= 1 required")
    return _sigma_power(sp.ImmutableMatrix(A), m).copy()


@functools.lru_cache(maxsize=_SIGMA_POWER_CACHE_SIZE)
def _sigma_power(A: sp.ImmutableMatrix, m: int) -> DomainMatrix:
    D = dm_from_matrix(A)
    out = D
    for j in range(1, m):
        out = dm_shift(D, j) * out
    return out


@functools.lru_cache(maxsize=_SIGMA_POWER_CACHE_SIZE)
def _sigma_power_expr(A: sp.ImmutableMatrix, m: int) -> sp.ImmutableMatrix:
    return sp.ImmutableMatrix(dm_to_matrix(_sigma_power(A, m)))


def mat_eq(A: sp.Matrix, B: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> bool:
    return A.shape == B.shape and mat_is_zero(A - B, tower)


def mat_is_zero(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> bool:
    return all(treduce(e, tower) == 0 for e in M)
