"""Order at infinity, first Moser order, and a desk-scale reduction loop.

For M = (1/x)^ord (H0 + H1/x + ...) with H0 != 0 the first Moser order is
m(M) = -ord + rank(H0)/n.  The reduction loop applies gauge transformations
M -> sigma(G) M G^{-1} built from constant transformations (permutations,
kernel alignment of H0) composed with shearings diag(1,..,1,x,..,x), and
accepts a step only when the pair (-ord, rank H0) strictly decreases
lexicographically.  The classical Moser reducibility criterion (theta(lam)
identically zero) decides when to keep trying; if it fires but no candidate
helps, ReductionStalled is raised rather than silently accepting the form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import sympy as sp

from .fields import (TRIVIAL_TOWER, Tower, mat_inv, mat_reduce, mat_shift,
                     nullspace, rank, roots_over_coeff_field,
                     series_at_infinity, treduce, x)
from .sequences import VerificationError

__all__ = ["InfinityExpansion", "MoserReport", "ReductionStalled",
           "infinity_expansion", "ord_and_moser", "moser_reduce",
           "leading_eigendata"]


class ReductionStalled(Exception):
    pass


@dataclass
class InfinityExpansion:
    ord: int
    coeffs: list  # H0, H1, ... matrices


@dataclass
class MoserReport:
    gauge: sp.Matrix
    reduced: sp.Matrix
    moser_order: sp.Rational
    leading: sp.Matrix


def infinity_expansion(M: sp.Matrix, terms: int, tower: Tower = TRIVIAL_TOWER) -> InfinityExpansion:
    n, mcols = M.shape
    entry = [[series_at_infinity(M[i, j], terms, tower) for j in range(mcols)]
             for i in range(n)]
    orders = [e[0] for row in entry for e in row if e is not None]
    if not orders:
        raise ValueError("zero matrix has no expansion")
    ord_ = min(orders)
    coeffs = []
    for k in range(terms):
        Hk = sp.zeros(n, mcols)
        for i in range(n):
            for j in range(mcols):
                if entry[i][j] is None:
                    continue
                o, cs = entry[i][j]
                idx = k - (o - ord_)
                if 0 <= idx < len(cs):
                    Hk[i, j] = cs[idx]
        coeffs.append(Hk)
    return InfinityExpansion(ord_, coeffs)


def ord_and_moser(M: sp.Matrix):
    """(ord_oo(M), m(M), H0)."""
    n = M.shape[0]
    exp = infinity_expansion(M, 1)
    H0 = exp.coeffs[0]
    return exp.ord, sp.Rational(-exp.ord) + sp.Rational(rank(H0), n), H0


def _theta_poly_vanishes(H0: sp.Matrix, H1: sp.Matrix, r: int) -> bool:
    """Moser criterion: theta(lam) = [s^r] det(s*H0 + H1 - lam*I) == 0."""
    s, lam = sp.symbols("_s _lam")
    n = H0.shape[0]
    detp = sp.expand((s * H0 + H1 - lam * sp.eye(n)).det(method="berkowitz"))
    coeff = sp.Poly(detp, s).coeff_monomial(s**r) if sp.Poly(detp, s).degree() >= r else sp.Integer(0)
    if coeff == 0:
        return True
    return all(treduce(c) == 0 for c in sp.Poly(coeff, lam).all_coeffs())


def _constant_candidates(H0: sp.Matrix):
    """Constant (x-free) transformations worth trying before a shearing."""
    n = H0.shape[0]
    cands = [sp.eye(n)]
    for perm in itertools.permutations(range(n)):
        P = sp.zeros(n, n)
        for i, p in enumerate(perm):
            P[i, p] = 1
        cands.append(P)
    # kernel alignment: invertible T whose trailing columns span ker(H0)
    kern = nullspace(H0)
    if kern and len(kern) < n:
        cols = list(kern)
        for i in range(n):
            e = sp.zeros(n, 1)
            e[i] = 1
            trial = cols + [e]
            if rank(sp.Matrix.hstack(*trial)) == len(trial):
                cols = trial
        if len(cols) == n:
            T = sp.Matrix.hstack(*(cols[len(kern):] + cols[:len(kern)]))
            cands.append(mat_reduce(T))
    return cands


def _shearings(n: int):
    out = []
    for k in range(1, n):
        D = sp.diag(*([1] * (n - k) + [x] * k))
        out.append(D)
        out.append(D.inv())
    return out


def moser_reduce(M: sp.Matrix) -> MoserReport:
    n = M.shape[0]
    gauge = sp.eye(n)
    cur = mat_reduce(M)
    while True:
        exp = infinity_expansion(cur, 2)
        H0, H1 = exp.coeffs
        r = rank(H0)
        if exp.ord >= 0:
            break
        if not _theta_poly_vanishes(H0, H1, r):
            break  # Moser-irreducible with m > 1
        best = None
        for T in _constant_candidates(H0):
            Tinv = mat_inv(T)
            MT = mat_reduce(T * cur * Tinv)
            for D in _shearings(n):
                cand = mat_reduce(mat_shift(D) * MT * D.inv())
                cexp = infinity_expansion(cand, 1)
                measure = (-cexp.ord, rank(cexp.coeffs[0]))
                if measure < (-exp.ord, r):
                    best = (D * T, cand)
                    break
            if best:
                break
        if best is None:
            raise ReductionStalled(
                "Moser criterion fires but no candidate gauge decreases (-ord, rank)")
        G, cur = best
        gauge = mat_reduce(G * gauge)
    ord_, m_, H0 = ord_and_moser(cur)
    # exact gauge identity check
    lhs = mat_reduce(mat_shift(gauge) * M * mat_inv(gauge))
    if not all(treduce(lhs[i] - cur[i]) == 0 for i in range(n * n)):
        raise VerificationError("gauge identity violated")
    return MoserReport(gauge=gauge, reduced=cur, moser_order=m_, leading=H0)


def leading_eigendata(H0: sp.Matrix, n: int, var: sp.Symbol = None):
    """Classification of the eigenvalue multiset of H0 over Q(t)."""
    Y = var if var is not None else sp.Symbol("Y")
    cp = H0.charpoly(Y).as_expr()
    return roots_over_coeff_field(cp, Y, n)
