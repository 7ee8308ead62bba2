"""Order at infinity, first Moser order, and Moser reduction at x = infinity.

For M = x^q (H0 + H1/x + ...), q = -ord, H0 != 0, the first Moser order is
m(M) = q + r/n, r = rank H0.  :func:`moser_reduce` lowers it by gauges
M -> sigma(G) M G^-1 built as in Moser's lemma (J. Moser, 1960; M. A.
Barkatou, ISSAC 1995; Barkatou-Pfluegel, JSC 44, 2009), over K = Q(x, t):

* M is Moser-reducible iff theta(lam) = [s^r] det(s*H0 + H1 - lam*I),
  taken over Q(t)[s, lam], vanishes identically.
* One step is G = S * P^-1, P a constant basis change over Q(t) whose
  trailing columns span a subspace N2 of ker H0 and S = diag(1, ..., 1,
  1/x, ..., 1/x) a shearing of the N2 coordinates.  sigma(S) S^-1 = I +
  O(1/x), so the new leading matrix is that of S P^-1 M P S^-1, of rank
  r + dim(B N2 + J N2) - dim N2 for the pencil B + lam*J : ker H0 ->
  K^n / im H0 induced by H1 and the identity, whose determinant is theta
  up to a unit.  N2 = ker H0 when that lowers the rank (plain shearing);
  otherwise N2 is spanned by the coefficients of a least-degree polynomial
  null vector of the pencil, which maps them into a smaller space.
* Each step must lower (q, r) lexicographically, checked exactly;
  ReductionStalled is raised when it does not.

The report keeps the gauge, the reduced matrix and its leading matrix as
K-forms.  ``leading_eigendata(H0: DomainMatrix)`` classifies its
eigenvalues from the factors over Q(t) of its characteristic polynomial
(:func:`ddsolve.fields.charpoly_factors`).
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy as sp
from sympy.polys.matrices import DomainMatrix

from .fields import (QQ_T, QQ_XT, TRIVIAL_TOWER, AllEqual, Conjugate,
                     MixedSplit, Split, Tower, charpoly_factors,
                     dm_from_matrix, dm_inv, dm_same, dm_series_at_infinity,
                     dm_shift, dm_to_matrix, kernel)
from .sequences import VerificationError

__all__ = ["InfinityExpansion", "MoserReport", "ReductionStalled",
           "infinity_expansion", "moser_reduce",
           "leading_eigendata"]

# Q(t)[s, lam], where the Moser criterion's determinant is taken
_THETA_RING = QQ_T[sp.Symbol("_s"), sp.Symbol("_lam")]


class ReductionStalled(Exception):
    pass


@dataclass
class InfinityExpansion:
    ord: int
    coeffs: list  # H0, H1, ... matrices


@dataclass
class MoserReport:
    gauge: DomainMatrix    # K-form of the gauge G
    reduced: DomainMatrix  # K-form of sigma(G) M G^-1
    moser_order: sp.Rational
    leading: DomainMatrix  # K-form of the leading matrix, over Q(t)
    ord: int               # order at infinity of the reduced matrix


def infinity_expansion(M: sp.Matrix, terms: int, tower: Tower = TRIVIAL_TOWER) -> InfinityExpansion:
    """Expansion of a nonzero matrix at x = infinity, in canonical form."""
    ord_, coeffs = dm_series_at_infinity(dm_from_matrix(M, tower), terms)
    return InfinityExpansion(ord_, [dm_to_matrix(C, tower) for C in coeffs])


def _theta_vanishes(H0: DomainMatrix, H1: DomainMatrix, r: int) -> bool:
    """Moser criterion theta(lam) == 0.  det(s*H0 + H1 - lam*I) has degree
    at most r = rank H0 in s, so theta vanishes iff the degree is below r."""
    R = _THETA_RING
    s, lam = R.gens
    h0, h1 = (H.convert_to(R.domain).to_list() for H in (H0, H1))
    n = len(h0)
    pencil = DomainMatrix(
        [[s * h0[i][j] + h1[i][j] - (lam if i == j else R.zero)
          for j in range(n)] for i in range(n)], (n, n), R)
    return pencil.det().degree(s) < r


def _pencil_null_vector(B: DomainMatrix, J: DomainMatrix):
    """Coefficients nu_0, ..., nu_d (rows) of a polynomial null vector of
    least degree d of the square pencil B + lam*J, or None when the pencil
    is regular.  They solve B nu_0 = 0, B nu_k + J nu_{k-1} = 0, J nu_d = 0,
    and a singular m x m pencil has such a vector with d < m."""
    m = B.shape[0]
    Z = DomainMatrix.zeros((m, m), QQ_XT)
    for d in range(m):
        T = DomainMatrix.vstack(*(
            DomainMatrix.hstack(*(B if k == row else J if k == row - 1 else Z
                                  for k in range(d + 1)))
            for row in range(d + 2)))
        null = kernel(T)
        if null.shape[0]:
            v = null.to_list()[0]
            return DomainMatrix([v[k * m:(k + 1) * m] for k in range(d + 1)],
                                (d + 1, m), QQ_XT)
    return None


def _moser_step(H0: DomainMatrix, H1: DomainMatrix) -> DomainMatrix:
    """The gauge G = S * P^-1 of one Moser step (module docstring)."""
    n = H0.shape[0]
    N = kernel(H0)                     # rows: a basis of ker H0
    W = kernel(H0.transpose())         # rows: coordinates on K^n / im H0
    J = W * N.transpose()
    B = W * H1 * N.transpose()
    N2 = N
    if B.hstack(J).rank() == N.shape[0]:   # the plain shearing keeps the rank
        V = _pencil_null_vector(B, J)
        if V is not None:
            N2 = V * N
    # P: a basis of N2, extended by ker H0 and then by K^n, in reverse
    X = DomainMatrix.vstack(N2, N, DomainMatrix.eye(n, QQ_XT))
    _, pivots = X.transpose().rref()
    P = X.extract(list(reversed(pivots)), range(n)).transpose()
    s = sum(1 for p in pivots if p < N2.shape[0])
    inv_x = QQ_XT.one / QQ_XT.gens[0]
    S = DomainMatrix.diag([QQ_XT.one] * (n - s) + [inv_x] * s, QQ_XT)
    return S * dm_inv(P)


def moser_reduce(D: DomainMatrix) -> MoserReport:
    """Gauge the nonzero matrix over Q(x, t) whose K-form is D to order 0
    at infinity or to Moser-irreducible form; ReductionStalled when a
    built step does not lower (q, rank H0)."""
    n = D.shape[0]
    cur, gauge = D, DomainMatrix.eye(n, QQ_XT)
    ord_, (H0, H1) = dm_series_at_infinity(cur, 2)
    r = H0.rank()
    while ord_ < 0 and _theta_vanishes(H0, H1, r):
        G = _moser_step(H0, H1)
        cur, gauge = dm_shift(G) * cur * dm_inv(G), G * gauge
        before = (-ord_, r)
        ord_, (H0, H1) = dm_series_at_infinity(cur, 2)
        r = H0.rank()
        if (-ord_, r) >= before:
            raise ReductionStalled("Moser criterion fires but the Moser "
                                   "step does not decrease (-ord, rank)")
    # exact gauge identity check
    if not dm_same([(dm_shift(gauge), D)], [(cur, gauge)]):
        raise VerificationError("gauge identity violated")
    return MoserReport(gauge=gauge, reduced=cur,
                       moser_order=sp.Rational(-ord_) + sp.Rational(r, n),
                       leading=H0, ord=ord_)


def leading_eigendata(H0: DomainMatrix):
    """Classification of the eigenvalue multiset over Q(t) of the leading
    matrix H0 (an x-free K-form): Conjugate when the characteristic
    polynomial is irreducible of degree n > 1, AllEqual or Split when it
    splits into linear factors, MixedSplit for any other shape (the caller
    exits; n prime rules these out for genuine beta-polynomials).  The
    eigenvalues are elements of Q(t), and the irreducible characteristic
    polynomial of Conjugate is dense over K, highest degree first."""
    n = H0.shape[0]
    factors = charpoly_factors(H0)
    if n > 1 and len(factors) == 1 and factors[0][1] == 1 \
            and factors[0][0].degree() == n:
        return Conjugate(tuple(QQ_XT.convert_from(c, QQ_T)
                               for c in factors[0][0].rep.to_list()))
    if all(f.degree() == 1 for f, _ in factors):
        roots = [-f.rep.to_list()[1] for f, mult in factors
                 for _ in range(mult)]
        if all(r == roots[0] for r in roots):
            return AllEqual(roots[0])
        return Split(tuple(roots))
    return MixedSplit(tuple((f.as_expr(), mult) for f, mult in factors))
