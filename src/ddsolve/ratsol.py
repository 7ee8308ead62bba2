"""Rational solutions of sigma^m(Y) = M Y over Q(t)(x) or the tower.

The pipeline is the classical one: an Abramov-style universal denominator
from the shift-class analysis of den(M) against den(M^-1), then polynomial
solutions with a degree bound read off the expansion at x = infinity, then
exact substitution checks on everything returned.

A pole of a solution at c propagates through Y(x+m) = M(x)Y(x): going down
there must be s >= 1 with den(M)(c - s*m) = 0, going up s >= 0 with
den(M^-1)(c + s*m) = 0.  That traps candidate poles (per shift class and
residue mod m) in a finite window with explicit multiplicity bounds.

Between the boundaries everything runs on DomainMatrix over K = Q(x, t):
a matrix over the tower is the K-matrix of its regular representation
(:func:`~ddsolve.fields.dm_from_matrix`), and a vector is the first column
of its own.  The denominators of M and M^-1 are read off their K-entries.
The degree bound comes from the expansion of M at infinity, whose indicial
determinant is taken over Q[t, d], or else from the indicial polynomials
of the scalar operators (:func:`~ddsolve.fields.indicial_degrees`), whose
chains are sequences of K-matrices.  The polynomial ansatz clears the
denominators of M with one q in Q[x, t] and solves
q(x) Y(x+m) - N(x) Y(x) = 0 as a linear system over Q(t) in the
coefficients of Y, unknowns ordered by (coordinate, degree, theta-power).
The constant-span test is a rank test over Q(t) on coefficients in x.
SymPy expressions appear only at the boundary: the public functions take
and return sp.Matrix with entries in the canonical form of treduce, u is
returned in that form, and the scalar operators as lists of expanded
polynomials.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import sympy as sp
from sympy import QQ, ZZ
from sympy.polys.densebasic import dup_from_raw_dict, dup_strip
from sympy.polys.matrices import DomainMatrix

from .fields import (QQ_XT, TRIVIAL_TOWER, Tower, _QQ_XTTH, _frac_expr,
                     _modulus, _tower_expr, common_integer_roots,
                     dm_from_matrix, dm_inv, dm_series_at_infinity, dm_shift,
                     dm_to_matrix, factor_in_x, from_regular,
                     indicial_degrees, kernel, regular_matrix, shift, t,
                     theta, x)
from .difftools import shift_equivalent
from .sequences import VerificationError

__all__ = ["RationalSolutionBasis", "UnsupportedCase",
           "universal_denominator", "polynomial_solutions",
           "rational_solutions", "gauge_from_ratios"]

# Q(t), the field of the ansatz unknowns, and its polynomial ring
_QT = QQ.frac_field(t)
_QT_RING = _QT.field.ring
# Q[x, t], where numerators and denominators of K live, its integer
# version, and Q[x, t, theta], where scalar operators are written out
_XT_RING = QQ_XT.field.ring
_XT_ZZ = _XT_RING.clone(domain=ZZ)
_XTTH_RING = _QQ_XTTH.field.ring
_X = _XT_RING.gens[0]
# Q[t, theta][x], where the indicial analysis of a scalar operator runs
_OP_RING = QQ[t, theta][x]
# Q[t, d], where the indicial determinant at infinity is taken
_TD_RING = QQ[t, sp.Symbol("_d")]


class UnsupportedCase(Exception):
    """Outside the documented desk-scale scope of a subroutine."""


@dataclass
class RationalSolutionBasis:
    m: int
    basis: list  # column vectors (sympy Matrix n x 1)


def _common_denominator(D: DomainMatrix):
    """Monic lcm in Q[x, t] of the denominators of the entries of D."""
    q = _XT_RING.one
    for c in D.to_dok().values():
        q = q.lcm(c.denom)
    return q


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
        row = [_QT.zero] * len(columns)
        for j, terms in slots[key].items():
            row[j] = _QT.new(_QT_RING.from_dict(terms))
        rows.append(row)
    return DomainMatrix(rows, (len(rows), len(columns)), _QT)


# ---------------------------------------------------------------------------
# universal denominator

def _denominator_factors(D: DomainMatrix, tower: Tower) -> list:
    """Monic irreducible factors in x over Q(t), with multiplicity, of the
    lcm of the denominators of the entries of D."""
    q = _common_denominator(D)
    if q.degree(_X) <= 0:
        return []
    return factor_in_x(q.as_expr(), tower)[1]


def universal_denominator(M: sp.Matrix, m: int = 1,
                          tower: Tower = TRIVIAL_TOWER):
    """Polynomial u(x): every rational solution of sigma^m(Y)=MY has
    denominator dividing u."""
    R = dm_from_matrix(M, tower)
    facA = _denominator_factors(R, tower)
    facB = _denominator_factors(dm_inv(R), tower)
    # group into shift classes across A and B factors
    classes = []  # (base, {shift: multA}, {shift: multB})
    for fac, mult, which in ([(f, mu, 0) for f, mu in facA]
                             + [(f, mu, 1) for f, mu in facB]):
        for entry in classes:
            j = shift_equivalent(entry[0], fac, tower)
            if j is not None:
                entry[1 + which][j] = entry[1 + which].get(j, 0) + mult
                break
        else:
            entry = [fac, {}, {}]
            entry[1 + which][0] = mult
            classes.append(entry)
    u = QQ_XT.one
    for base, SA, SB in classes:
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
                    u = u * QQ_XT.from_sympy(shift(base, k)) ** mult
    return _frac_expr(u)


# ---------------------------------------------------------------------------
# polynomial solutions

def scalar_operators(M: sp.Matrix, m: int, tower: Tower):
    """For each coordinate i a scalar relation sum_j p_j(x) y(x + m*j) = 0
    satisfied by y = (i-th coordinate of any solution of sigma^m(Y)=MY),
    with polynomial p_j.  Built from the chain v_{k+1} = sigma^m(v_k) M."""
    e, n = tower.degree, M.shape[0]
    mod = _modulus(tower)
    entries = from_regular(dm_from_matrix(M, tower), e)
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
                ops.append(_operator_polynomials(
                    [null[r * f + cand] for r in range(k)]))
                break
            chain.append(MT * dm_shift(chain[-1], m))
    return ops


def _operator_polynomials(coeffs: list) -> list:
    """Tower elements c_j (dense in theta over K) times the lcm over Z[x, t]
    of their denominators, as expanded polynomials in x, t and theta."""
    den = _XT_ZZ.one
    for a in coeffs:
        for c in a:
            den = den.lcm(c.denom.set_ring(_XT_ZZ))
    den = den.set_ring(_XT_RING)
    theta_ = _XTTH_RING.gens[2]
    return [sum((_cleared(c, den).set_ring(_XTTH_RING) * theta_**k
                 for k, c in enumerate(reversed(a))), _XTTH_RING.zero)
            .as_expr() for a in coeffs]


def _scalar_degree_candidates(pcoeffs, m: int, tower: Tower):
    """Degree candidates for polynomial solutions of
    sum_j p_j(x) y(x+m*j) = 0 via the indicial analysis at x = infinity,
    the p_j read as polynomials in x over Q[t, theta]."""
    return indicial_degrees([_OP_RING.ring.from_expr(p).to_dense()
                             for p in pcoeffs], m, _OP_RING.domain)


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


def _degree_bound(M: sp.Matrix, m: int, tower: Tower):
    """Top-degree analysis at x = infinity; -1 means only the zero solution.
    UnsupportedCase when the indicial analysis finds no bound.

    On the regular representation the determinant of the indicial pencil
    is the norm of the one over the tower times a unit of Q(t), so it has
    the same integer roots."""
    R = dm_from_matrix(M, tower)
    ne = R.shape[0]
    ord_, (H0, H1) = dm_series_at_infinity(R, 2)
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


def polynomial_solutions(M: sp.Matrix, m: int = 1, degree_bound: int = None,
                         tower: Tower = TRIVIAL_TOWER):
    """All polynomial solution vectors of sigma^m(Y) = M Y with
    deg <= degree_bound (computed from the infinity expansion if omitted).

    The basis is the null-space basis of the coefficient system, unknowns
    ordered by (coordinate, degree, theta-power)."""
    if degree_bound is None:
        degree_bound = _degree_bound(M, m, tower)
    if degree_bound < 0:
        return []
    R = dm_from_matrix(M, tower)
    e, ne, deg = tower.degree, R.shape[0], degree_bound + 1
    q = _common_denominator(R)
    N = {ab: _cleared(c, q) for ab, c in R.to_dok().items()}
    # column (i, dg, k) holds q(x) (x+m)^dg at coordinate b = i*e + k and
    # -N(x)_{ab} x^dg at every coordinate a
    qshift = [q * (_X + m)**dg for dg in range(deg)]
    columns = []
    for i in range(M.shape[0]):
        for dg in range(deg):
            for k in range(e):
                b = i * e + k
                columns.append([
                    (qshift[dg] if a == b else _XT_RING.zero)
                    - N.get((a, b), _XT_RING.zero) * _X**dg
                    for a in range(ne)])
    xK = QQ_XT.gens[0]
    sols = []
    for vec in kernel(_coefficient_matrix(columns)).to_list():
        vec = [QQ_XT.convert_from(c, _QT) for c in vec]
        sols.append(sp.Matrix([
            _tower_expr(dup_strip([
                sum((vec[(i * deg + dg) * e + k] * xK**dg
                     for dg in range(deg)), QQ_XT.zero)
                for k in reversed(range(e))]))
            for i in range(M.shape[0])]))
    return sols


# ---------------------------------------------------------------------------
# rational solutions

def _constant_span_reduce(vectors, tower: Tower):
    """Prune vectors that are tower-constant (x-free) combinations of
    earlier ones.

    The columns of the regular representation of V are the coordinates
    of theta^k V, so a combination over Q(t)(theta) is a combination over
    Q(t) of those columns; with one common denominator cleared it is one
    of their coefficients in x.  The kept columns span a space closed
    under theta, so V is new iff its first column raises the rank."""
    regs = [dm_from_matrix(V, tower) for V in vectors]
    if not regs:
        return []
    q = _common_denominator(DomainMatrix.hstack(*regs))
    indep, span = [], []
    for V, D in zip(vectors, regs):
        cols = [[_cleared(c, q) for c in col]
                for col in D.transpose().to_list()]
        if _coefficient_matrix(span + cols[:1]).rank() > len(span):
            indep.append(V)
            span.extend(cols)
    return indep


def rational_solutions(M: sp.Matrix, m: int = 1,
                       tower: Tower = TRIVIAL_TOWER) -> RationalSolutionBasis:
    """Complete basis of rational solutions of sigma^m(Y) = M Y, each
    verified by substitution."""
    R = dm_from_matrix(M, tower)
    u = universal_denominator(M, m, tower)
    polys = polynomial_solutions(
        dm_to_matrix(R.mul(QQ_XT.from_sympy(shift(u, m) / u)), tower),
        m, None, tower)
    inv_u = QQ_XT.one / QQ_XT.from_sympy(u)
    basis = []
    for P in polys:
        V = dm_from_matrix(P, tower).mul(inv_u)
        if dm_shift(V, m) != R * V:
            raise VerificationError(
                "rational solution failed substitution check")
        basis.append(dm_to_matrix(V, tower))
    basis = _constant_span_reduce(basis, tower)
    return RationalSolutionBasis(m=m, basis=basis)


# ---------------------------------------------------------------------------
# gauge assembly

def _invertible_selection(columns, tower: Tower):
    """Pick one column per slot so the assembled matrix is invertible.

    The search is complete over constant combinations per slot: a k x k
    minor of [sum_j c_1j V_1j, ..., sum_j c_kj V_kj] is multilinear in the
    columns, so it is the sum over all one-vector-per-slot choices of
    prod c * (the same minor of the choice).  If every choice is
    rank-deficient, all those minors vanish, and so does every minor of
    every combination: no combination is invertible either."""
    regs = [[dm_from_matrix(V, tower) for V in slot] for slot in columns]
    for choice in itertools.product(*regs):
        G = DomainMatrix.hstack(*choice)
        if G.rank() == len(columns) * tower.degree:
            return dm_to_matrix(G, tower)
    return None


def gauge_from_ratios(A: sp.Matrix, ratios, m: int,
                      tower: Tower = TRIVIAL_TOWER):
    """G with sigma^m(G) * diag(ratios) = A * G, assembled column-by-column
    from rational solutions of sigma^m(W) = (A/ratio_i) W; None on failure.

    None is a complete negative answer: either some ratio has no rational
    solution, or no constant combination per slot is invertible (see
    :func:`_invertible_selection`)."""
    RA = dm_from_matrix(A, tower)
    n = A.shape[0]
    columns = []
    for r in ratios:
        Mi = RA * dm_from_matrix(sp.eye(n) / sp.sympify(r), tower)
        basis = rational_solutions(dm_to_matrix(Mi, tower), m, tower).basis
        if not basis:
            return None
        columns.append(basis)
    G = _invertible_selection(columns, tower)
    if G is None:
        return None
    GK = dm_from_matrix(G, tower)
    if dm_shift(GK, m) * dm_from_matrix(sp.diag(*ratios), tower) != RA * GK:
        raise VerificationError("gauge postcondition violated")
    return G
