"""Rational solutions of sigma^m(Y) = M Y over Q(t)(x) or the tower.

The pipeline is the classical one: an Abramov-style universal denominator
from the shift-class analysis of den(M) against den(M^-1), then polynomial
solutions with a degree bound read off the expansion at x = infinity, then
exact substitution checks on everything returned.

A pole of a solution at c propagates through Y(x+m) = M(x)Y(x): going down
there must be s >= 1 with den(M)(c - s*m) = 0, going up s >= 0 with
den(M^-1)(c + s*m) = 0.  That traps candidate poles (per shift class and
residue mod m) in a finite window with explicit multiplicity bounds.

Every function here takes and returns K-forms (see :mod:`ddsolve.fields`):
a vector is the K-form of an n x 1 matrix, a scalar operator that of the
row of its coefficients, and u an element of K = Q(x, t).  Denominators
are read off K-entries, and their factors in Q[x, t] are grouped by
:func:`ddsolve.difftools.shift_classes` (``fields.factor_in_x`` has no
caller in the package; it stays for the tests and the tracer).  The
degree bound comes from the expansion of M at infinity, whose indicial
determinant is taken over Q[t, d], or else from the indicial polynomials
of the scalar operators, whose chains are sequences of K-matrices.

The polynomial ansatz clears the denominators of M with one q in Q[x, t]
(:func:`ddsolve.fields.dm_clear`, the monic lcm of the distinct
denominators) and solves q(x) Y(x+m) - N(x) Y(x) = 0 over Q(t) in the
coefficients of Y, unknowns ordered by (coordinate, degree, theta-power).
The constant-span test is a rank test over Q(t) on coefficients in x of
the vectors cleared by one dm_clear.  The substitution check of every
rational solution and the gauge postcondition sigma^m(G) R = A G are
decided on cleared numerators by :func:`ddsolve.fields.dm_same`, with no
product over K.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import sympy as sp
from sympy import QQ, ZZ
from sympy.polys.densebasic import dup_from_raw_dict, dup_strip
from sympy.polys.matrices import DomainMatrix

from .difftools import shift_classes
from .fields import (QQ_T, QQ_XT, TRIVIAL_TOWER, Tower, _modulus,
                     common_integer_roots, dm_clear, dm_inv, dm_same,
                     dm_series_at_infinity, dm_shift, from_regular,
                     indicial_degrees, k_shift, kernel, regular_matrix, t,
                     theta)
from .sequences import VerificationError

__all__ = ["RationalSolutionBasis", "UnsupportedCase",
           "universal_denominator", "polynomial_solutions",
           "rational_solutions", "gauge_from_ratios"]

# the polynomial ring of Q(t), the field of the ansatz unknowns
_QT_RING = QQ_T.field.ring
# Q[x, t], where numerators and denominators of K live, and its integer
# version
_XT_RING = QQ_XT.field.ring
_XT_ZZ = _XT_RING.clone(domain=ZZ)
_X = _XT_RING.gens[0]
# Q[t, theta], the coefficients in x of a scalar operator
_OP_RING = QQ[t, theta]
# Q[t, d], where the indicial determinant at infinity is taken
_TD_RING = QQ[t, sp.Symbol("_d")]


class UnsupportedCase(Exception):
    """Outside the documented desk-scale scope of a subroutine."""


@dataclass
class RationalSolutionBasis:
    m: int
    basis: list  # K-forms of the column vectors


def _cleared(c, q):
    """c * q as a polynomial in Q[x, t], for q a multiple of den(c)."""
    return c.numer * q.exquo(c.denom)


def _coefficient_matrix(columns: list) -> DomainMatrix:
    """The matrix over Q(t) whose j-th column lists the coefficients in x
    of the polynomials columns[j] (over Q[x, t]), one row per (position,
    power of x) that occurs."""
    slots: dict = {}
    for j, col in enumerate(columns):
        for a, p in enumerate(col):
            for (i, k), c in p.items():
                slots.setdefault((a, i), {}).setdefault(j, {})[(k,)] = c
    rows = []
    for key in sorted(slots):
        row = [QQ_T.zero] * len(columns)
        for j, terms in slots[key].items():
            row[j] = QQ_T.new(_QT_RING.from_dict(terms))
        rows.append(row)
    return DomainMatrix(rows, (len(rows), len(columns)), QQ_T)


# ---------------------------------------------------------------------------
# universal denominator

def universal_denominator(M: DomainMatrix, m: int = 1):
    """Polynomial u(x) in K: every rational solution of sigma^m(Y) = MY
    (M a K-form) has denominator dividing u.  The entries of a K-form lie
    in K, so their denominators never involve theta."""
    _, classes = shift_classes([dm_clear(M)[0], dm_clear(dm_inv(M))[0]])
    u = QQ_XT.one
    for base, shifts in classes:
        SA = {j: a for j, (a, _) in shifts.items() if a}
        SB = {j: b for j, (_, b) in shifts.items() if b}
        residues = {a % m for a in SA} & {b % m for b in SB}
        for rho in residues:
            # a factor b(x+k) vanishes at root(b) - k: larger shift k means a
            # pole further left, so the solution-pole window in shift
            # coordinates runs from min(B-shifts) up to max(A-shifts) - m
            As = {a: mu for a, mu in SA.items() if a % m == rho}
            Bs = {b: mu for b, mu in SB.items() if b % m == rho}
            for k in range(min(Bs), max(As) - m + 1, m):
                mult = min(sum(mu for a, mu in As.items() if a >= k + m),
                           sum(mu for b, mu in Bs.items() if b <= k))
                if mult > 0:
                    u *= k_shift(base, k) ** mult
    return u


# ---------------------------------------------------------------------------
# polynomial solutions

def scalar_operators(M: DomainMatrix, m: int, tower: Tower):
    """For each coordinate i a scalar relation sum_j p_j(x) y(x + m*j) = 0
    satisfied by y = (i-th coordinate of any solution of sigma^m(Y)=MY),
    with polynomial p_j: the K-form of the row (p_0, ..., p_k).  Built
    from the chain v_{k+1} = sigma^m(v_k) M."""
    e = tower.degree
    n = M.shape[0] // e
    mod = _modulus(tower)
    entries = from_regular(M, e)
    # columns w_k = v_k^T, so w_{k+1} = M^T sigma^m(w_k)
    MT = regular_matrix([entries[j * n + i] for i in range(n)
                         for j in range(n)], (n, n), mod, QQ_XT)
    ops = []
    for i in range(n):
        chain = [regular_matrix([[QQ_XT.one] if r == i else []
                                 for r in range(n)], (n, 1), mod, QQ_XT)]
        while True:
            k = len(chain)
            # the null space over the tower as a k x f matrix, row-major
            null = from_regular(kernel(DomainMatrix.hstack(*chain))
                                .transpose(), e)
            f = len(null) // k
            cand = next((j for j in range(f) if null[(k - 1) * f + j]),
                        None)
            if cand is not None:
                ops.append(regular_matrix(
                    _cleared_row([null[r * f + cand] for r in range(k)]),
                    (1, k), mod, QQ_XT))
                break
            chain.append(MT * dm_shift(chain[-1], m))
    return ops


def _cleared_row(coeffs: list) -> list:
    """Tower elements c_j (dense in theta over K) times the lcm over
    Z[x, t] of their denominators."""
    den = _XT_ZZ.one
    for a in coeffs:
        for c in a:
            den = den.lcm(c.denom.set_ring(_XT_ZZ))
    den = den.set_ring(_XT_RING)
    return [[QQ_XT.new(_cleared(c, den)) for c in a] for a in coeffs]


def _scalar_degree_candidates(op: DomainMatrix, m: int, tower: Tower):
    """Degree candidates for polynomial solutions of the scalar operator
    op (a K-form, see :func:`scalar_operators`) via the indicial analysis
    at x = infinity, its coefficients read as polynomials in x over
    Q[t, theta]."""
    ring = _OP_RING.ring
    Q = []
    for a in from_regular(op, tower.degree):
        coeffs: dict = {}
        for k, c in enumerate(reversed(a)):
            for (i, s), q in c.numer.terms():
                coeffs.setdefault(i, {})[(s, k)] = q
        Q.append(dup_from_raw_dict(
            {i: ring.from_dict(cs) for i, cs in coeffs.items()}, _OP_RING))
    return indicial_degrees(Q, m, _OP_RING)


def _indicial_roots(P1: DomainMatrix, P0: DomainMatrix, m: int):
    """Sorted integer roots d of det(P1 - m*d*P0) for square P0, P1 over
    Q(t) (held in K); None when the determinant vanishes identically.

    Each row is cleared of its denominators first, which scales the
    determinant by a unit of Q(t), so it is taken over Q[t, d]."""
    ring, d = _TD_RING.ring, _TD_RING.gens[1]
    rows = []
    for r1, r0 in zip(P1.to_list(), P0.to_list()):
        q = _XT_RING.one
        for c in r1 + r0:
            q = q.lcm(c.denom)
        rows.append([_cleared(a, q).set_ring(ring)
                     - m * d * _cleared(b, q).set_ring(ring)
                     for a, b in zip(r1, r0)])
    det = DomainMatrix(rows, P1.shape, _TD_RING).det()
    if not det:
        return None
    slices: dict = {}      # power of t -> {power of d: coefficient}
    for (s, k), c in det.items():
        slices.setdefault(s, {})[k] = c
    return common_integer_roots([dup_from_raw_dict(sl, QQ)
                                 for sl in slices.values()])


def _degree_bound(M: DomainMatrix, m: int, tower: Tower):
    """Top-degree analysis at x = infinity; -1 means only the zero solution.
    UnsupportedCase when the indicial analysis finds no bound.

    On the regular representation the determinant of the indicial pencil
    is the norm of the one over the tower times a unit of Q(t), so it has
    the same integer roots."""
    ne = M.shape[0]
    ord_, (H0, H1) = dm_series_at_infinity(M, 2)
    if ord_ > 0:
        return -1
    if ord_ == 0:
        A = H0 - DomainMatrix.eye(ne, QQ_XT)
        right = kernel(A)
        if not right.shape[0]:
            return -1
        left = kernel(A.transpose())
        C = right.transpose()
        roots = _indicial_roots(left * H1 * C, left * C, m)
        if roots is not None:
            return max([-1] + roots)
    elif H0.rank() == ne:
        return -1
    # fall back to scalar relations per coordinate (sound and complete:
    # every coordinate of a solution is annihilated by its chain operator)
    bounds = []
    for op in scalar_operators(M, m, tower):
        roots = _scalar_degree_candidates(op, m, tower)
        if roots is None:
            raise UnsupportedCase("degree bound: the indicial analysis of a "
                                  "scalar operator found no equation")
        bounds.append(max([-1] + roots))
    return max(bounds)


def polynomial_solutions(M: DomainMatrix, m: int = 1,
                         degree_bound: int = None,
                         tower: Tower = TRIVIAL_TOWER):
    """All polynomial solution vectors of sigma^m(Y) = M Y with
    deg <= degree_bound (computed from the infinity expansion if omitted).

    The basis is the null-space basis of the coefficient system, unknowns
    ordered by (coordinate, degree, theta-power)."""
    if degree_bound is None:
        degree_bound = _degree_bound(M, m, tower)
    if degree_bound < 0:
        return []
    e, ne, deg = tower.degree, M.shape[0], degree_bound + 1
    n = ne // e
    q, N = dm_clear(M)
    N = N.to_dok()
    # column (i, dg, k) holds q(x) (x+m)^dg at coordinate b = i*e + k and
    # -N(x)_{ab} x^dg at every coordinate a
    qshift = [q * (_X + m)**dg for dg in range(deg)]
    columns = []
    for i in range(n):
        for dg in range(deg):
            for k in range(e):
                b = i * e + k
                columns.append([
                    (qshift[dg] if a == b else _XT_RING.zero)
                    - N.get((a, b), _XT_RING.zero) * _X**dg
                    for a in range(ne)])
    xK = QQ_XT.gens[0]
    mod = _modulus(tower)
    sols = []
    for vec in kernel(_coefficient_matrix(columns)).to_list():
        vec = [QQ_XT.convert_from(c, QQ_T) for c in vec]
        sols.append(regular_matrix([
            dup_strip([
                sum((vec[(i * deg + dg) * e + k] * xK**dg
                     for dg in range(deg)), QQ_XT.zero)
                for k in reversed(range(e))])
            for i in range(n)], (n, 1), mod, QQ_XT))
    return sols


# ---------------------------------------------------------------------------
# rational solutions

def _constant_span_reduce(vectors: list, tower: Tower) -> list:
    """Prune vectors (K-forms) that are tower-constant (x-free)
    combinations of earlier ones.

    The columns of the K-form of V are the coordinates of theta^k V, so a
    combination over Q(t)(theta) is a combination over Q(t) of those
    columns; with one common denominator cleared it is one of their
    coefficients in x.  The kept columns span a space closed under theta,
    so V is new iff its first column raises the rank."""
    if not vectors:
        return []
    columns = dm_clear(DomainMatrix.hstack(*vectors))[1].transpose()\
        .to_list()
    indep, span, j = [], [], 0
    for V in vectors:
        cols, j = columns[j:j + V.shape[1]], j + V.shape[1]
        if _coefficient_matrix(span + cols[:1]).rank() > len(span):
            indep.append(V)
            span.extend(cols)
    return indep


def rational_solutions(M: DomainMatrix, m: int = 1,
                       tower: Tower = TRIVIAL_TOWER) -> RationalSolutionBasis:
    """Complete basis of rational solutions of sigma^m(Y) = M Y, each
    verified by substitution."""
    u = universal_denominator(M, m)
    su = k_shift(u, m)
    polys = polynomial_solutions(M.mul(su / u), m, None, tower)
    inv_u = QQ_XT.one / u
    basis = []
    for P in polys:
        V = P.mul(inv_u)
        if not dm_same([(dm_shift(V, m),)], [(M, V)]):
            raise VerificationError(
                "rational solution failed substitution check")
        basis.append(V)
    return RationalSolutionBasis(m=m,
                                 basis=_constant_span_reduce(basis, tower))


# ---------------------------------------------------------------------------
# gauge assembly

def _invertible_selection(columns: list, tower: Tower):
    """Pick one vector per slot (lists of K-forms) so that the assembled
    matrix is invertible; its K-form, or None.

    The search is complete over constant combinations per slot: a k x k
    minor of [sum_j c_1j V_1j, ..., sum_j c_kj V_kj] is multilinear in the
    columns, so it is the sum over all one-vector-per-slot choices of
    prod c * (the same minor of the choice).  If every choice is
    rank-deficient, all those minors vanish, and so does every minor of
    every combination: no combination is invertible either."""
    for choice in itertools.product(*columns):
        G = DomainMatrix.hstack(*choice)
        if G.rank() == len(columns) * tower.degree:
            return G
    return None


def gauge_from_ratios(A: DomainMatrix, ratios: DomainMatrix, m: int):
    """G over K with sigma^m(G) * diag(r_1, ..., r_n) = A * G, `ratios` that
    diagonal over K, assembled column-by-column from rational solutions of
    sigma^m(W) = (A/r_i) W; None on failure.

    None is a complete negative answer: either some ratio has no rational
    solution, or no constant combination per slot is invertible (see
    :func:`_invertible_selection`)."""
    columns = []
    for i in range(A.shape[0]):
        basis = rational_solutions(A.mul(QQ_XT.one / ratios[i, i].element),
                                   m, TRIVIAL_TOWER).basis
        if not basis:
            return None
        columns.append(basis)
    G = _invertible_selection(columns, TRIVIAL_TOWER)
    if G is None:
        return None
    if not dm_same([(dm_shift(G, m), ratios)], [(A, G)]):
        raise VerificationError("gauge postcondition violated")
    return G
