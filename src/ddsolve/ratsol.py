"""Rational solutions of sigma^m(Y) = M Y over Q(t)(x) or the tower.

The pipeline is the classical one: an Abramov-style universal denominator
from the shift-class analysis of den(M) against den(M^-1), then polynomial
solutions with a degree bound from EG-eliminations on their coefficient
recurrence (S. A. Abramov, J. Difference Eq. Appl. 5, 1999), then exact
substitution checks on everything returned.

A pole of a solution at c propagates through Y(x+m) = M(x)Y(x): going down
there must be s >= 1 with den(M)(c - s*m) = 0, going up s >= 0 with
den(M^-1)(c + s*m) = 0.  That traps candidate poles (per shift class and
residue mod m) in a finite window with explicit multiplicity bounds.

M^-1 is an argument, and M and M^-1 are passed as their cleared forms
(:class:`ddsolve.fields.Cleared`: N/q over Z[x, t] with the gcd g of
N's entries).  The procedures solve sigma^m(W) = (A_m/r) W for ratios
r: they invert A_m once and clear A_m and A_m^-1 once per system
(``procedures.DDSystem.cleared_cocycle``; M. A. Barkatou, ISSAC 1999,
for the universal denominator of a system), and scale both by 1/r and
r with two gcds each (:meth:`~ddsolve.fields.Cleared.scale`), where
A_m/r over K would cancel every entry.  :func:`rational_solutions`
scales M by sigma^m(u)/u the same way, so the universal denominator,
the polynomial ansatz and the substitution check read q and N with no
gcd per entry.  The scaled q is (q/g1)(b/g2), its irreducible factors
those of A_m's and A_m^-1's q and of the ratio, so the universal
denominator takes the factors the solve already holds
(``procedures.DDSystem.irreducibles``, or those of
``closedform.system_hypergeometric`` for its specialized M), divides
each q by them and factors only what is left; what that gives joins
them for the next ratio.

Every function here takes and returns K-forms (see :mod:`ddsolve.fields`),
the system matrix of a rational solve as its cleared form: a vector is
the K-form of an n x 1 matrix, a scalar operator that of the row of its
coefficients, and u an element of K = Q(x, t).  Denominators
are read off K-entries, and their factors in Z[x, t] are grouped by
:func:`ddsolve.difftools.shift_classes`.

Polynomial solutions of sum_j P_j D^j(y) = 0, D = sigma^m - 1 here and
for Hyper's C in ``closedform``, d/dt on its delta-side, have one degree
bound (:func:`degree_bound`) and one ansatz (:func:`ansatz_kernel`): the
kernel of one coefficient matrix over the constants.  sigma^m reads M
as N/q, one q in Z[x, t] (its cleared form), and solves
q Delta_m Y + (q - N) Y = 0.
The constant-span test is a rank test on the same coefficient matrix.
The substitution check of every rational solution P/u, taken on P and u,
and the postcondition sigma^m(G) R = A G of every gauge, which
:func:`assemble_gauge` alone assembles, are decided on cleared numerators
by :func:`ddsolve.fields.dm_same`, with no product over K.
:func:`rational_solutions` returns its basis as a plain list of K-forms,
each checked once, so a caller takes the vectors as they are.
"""

from __future__ import annotations

import functools
import itertools
from typing import Optional

import sympy as sp
from sympy import QQ, ZZ
from sympy.polys.densebasic import dup_strip
from sympy.polys.densetools import dmp_shift
from sympy.polys.matrices import DomainMatrix

from .difftools import shift_classes
from .fields import (QQ_T, QQ_XT, TRIVIAL_TOWER, Cleared, FieldError, Tower,
                     _lcm, dm_clear, dm_same, dm_shift, dm_shift_clear,
                     has_rank, k_shift, kernel, point_rank, regular_matrix,
                     x_integer_roots)
from .sequences import VerificationError

__all__ = ["UnsupportedCase", "universal_denominator", "degree_bound",
           "ansatz_kernel", "polynomial_solutions", "rational_solutions",
           "assemble_gauge", "gauge_from_ratios"]

# Z[x, t], where numerators and denominators of K live
_XT_RING = QQ_XT.field.ring


class UnsupportedCase(Exception):
    """Outside the documented desk-scale scope of a subroutine."""


def _constants(ring) -> tuple:
    """The constants of a polynomial ring Z[v, ...] in its first generator
    v: the field K (Q(t) over Z[x, t], Q over Z[t], the only two rings
    here) and the map from a coefficient in v, a dict over the monomials
    in the other generators, into K."""
    if ring.ngens == 1:
        return QQ, lambda cs: QQ(cs.get((), 0))
    return QQ_T, lambda cs: QQ_T.new(QQ_T.field.ring.from_dict(cs))


def _coefficient_matrix(columns: list, constants: tuple) -> DomainMatrix:
    """The matrix over K, constants = (K, entry) of :func:`_constants`, of
    the polynomials columns[j] whose j-th column lists their coefficients
    in the ring's first generator, one row per (position, power) that
    occurs."""
    slots: dict = {}
    for j, col in enumerate(columns):
        for a, p in enumerate(col):
            for (i, *k), c in p.items():
                slots.setdefault((a, i), {}).setdefault(j, {})[tuple(k)] = c
    K, entry = constants
    return DomainMatrix([[entry(slots[key].get(j, {}))
                          for j in range(len(columns))]
                         for key in sorted(slots)],
                        (len(slots), len(columns)), K)


# ---------------------------------------------------------------------------
# universal denominator

def universal_denominator(M: Cleared, M_inv: Cleared, m: int,
                          known: Optional[list] = None):
    """Polynomial u(x) in K: every rational solution of sigma^m(Y) = MY
    (M the cleared form of a K-form, M_inv that of its inverse) has
    denominator dividing u, read off the two lcms q.  The entries of a
    K-form lie in K, so their denominators never involve theta.  `known`
    lists the irreducible factors the solve already holds: each q is
    divided by them before the rest is factored, and the rest's factors
    join the list (:func:`ddsolve.difftools.shift_classes`)."""
    _, classes = shift_classes([M.q, M_inv.q], known)
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

def scalar_operators(M: DomainMatrix, m: int):
    """For each coordinate i a scalar relation sum_j p_j(x) y(x + m*j) = 0
    satisfied by y = (i-th coordinate of any solution of sigma^m(Y)=MY),
    M over K, with polynomial p_j: the K-matrix of the row (p_0, ..., p_k).
    Built from the chain v_{k+1} = sigma^m(v_k) M."""
    # columns w_k = v_k^T, so w_{k+1} = M^T sigma^m(w_k)
    n, MT, ops = M.shape[0], M.transpose(), []
    for i in range(n):
        chain = [DomainMatrix.eye(n, QQ_XT).extract(range(n), [i])]
        while True:
            cand = next((v for v in kernel(DomainMatrix.hstack(*chain))
                         .to_list() if v[-1]), None)
            if cand is not None:
                # times the lcm over Z[x, t] of the denominators
                den = _lcm(c.denom for c in cand)
                ops.append(DomainMatrix([[QQ_XT.new(c.numer * den.exquo(
                    c.denom)) for c in cand]], (1, len(cand)), QQ_XT))
                break
            chain.append(MT * dm_shift(chain[-1], m))
    return ops


# ---------------------------------------------------------------------------
# the degree bound: EG-eliminations on the coefficient recurrence.  A row
# (length, coeff) is an equation sum_{i < length} coeff(i) y_{k+i} = 0 on
# y = sum_k y_k phi_k, coeff(i) over Z[k, consts], that holds at every k

@functools.lru_cache(maxsize=None)
def _k_domain(consts: tuple):
    """Z[k, consts], where the rows of :func:`degree_bound` live."""
    return ZZ[(sp.Symbol("_k"), *consts)]


@functools.lru_cache(maxsize=None)
def _basis_product(kdom, s: int, i: int, j: int, a: int):
    """S_ij(k + a), where x^i phi_k = sum_j S_ij(k) phi_{k+j}:
    S_ij(k) = S_{i-1,j-1}(k) + s (k + j) S_{i-1,j}(k), S_00 = 1."""
    if not 0 <= j <= i:
        return kdom.zero
    return kdom.one if j == i else (_basis_product(kdom, s, i - 1, j - 1, a)
                                    + s * (kdom.gens[0] + a + j)
                                    * _basis_product(kdom, s, i - 1, j, a))


def _operator_rows(Ps: list, c: int, s: int, kdom) -> list:
    """The rows of sum_j P_j(x) d^j, coeff formed on first use.  y_k adds
    T_l(k) = sum_{j, e} c^j k^(j) P_je S_{e,l+j}(k - j) to phi_{k+l},
    k^(j) = k (k - 1) ... (k - j + 1) and P_je the coefficient of x^e in
    P_j.  Row r is read at phi_{k+h}, h = max_j(deg P_j - j) on row r:
    coeff(i), i < h + len(Ps), is row r of T_{h-i}(k + i), and the
    leading row coeff(0) = sum_j c^j k^(j) P_{j,h+j} is nonzero."""
    k, kring, width, rows = kdom.gens[0], kdom.ring, Ps[0].shape[1], []
    for row in zip(*(P.to_list() for P in Ps)):
        # (j, e) -> the coefficients of x^e in row j over Z[k, consts],
        # formed in one pass over the terms
        parts: dict = {}
        for j, entries in enumerate(row):
            for b, p in enumerate(entries):
                for (e, *rest), a in p.terms():
                    parts.setdefault((j, e), [{} for _ in range(width)])[b][
                        (0, *rest)] = a
        parts = {je: [kring.from_dict(d) for d in vec]
                 for je, vec in parts.items()}
        h = max(e - j for j, e in parts)

        def coeff(i, parts=parts, h=h):
            out = [kdom.zero] * width
            for (j, e), vec in parts.items():
                S = _basis_product(kdom, s, e, h - i + j, i - j)
                if S:
                    for l in range(j):
                        S = S * c * (k + i - l)
                    out = [o + b * S for o, b in zip(out, vec)]
            return out

        rows.append((h + len(Ps), functools.lru_cache(maxsize=None)(coeff)))
    return rows


def _combined_row(v: list, rows: list) -> tuple:
    """The row sum_r v_r(k - s) rows_r(k - s) / g, for v with
    sum_r v_r rows_r.coeff(0) = 0: s >= 1 the least shift that leaves a
    nonzero leading row, and g the k-free content of its coefficients."""
    terms = [(a, row) for a, row in zip(v, rows) if a]
    length, kring = max(row[0] for _, row in terms), terms[0][0].ring
    combo = [[sum((a * coeff(i)[j] for a, (L, coeff) in terms if i < L),
                  kring.zero) for j in range(len(v))] for i in range(length)]
    s = next((s for s in range(1, length) if any(combo[s])), None)
    if s is None:           # the operator is singular: so is M
        raise FieldError("matrix not invertible")
    # k -> k - s, a Taylor shift of the dense forms
    shift, u = [ZZ(-s)] + [ZZ(0)] * (kring.ngens - 1), kring.ngens - 1
    combo = [kring.from_dense(dmp_shift(e.to_dense(), shift, u, ZZ))
             for c in combo[s:] for e in c]
    g = functools.reduce(lambda a, b: a.gcd(b), combo)
    g = functools.reduce(lambda a, b: a.gcd(b), (
        g.coeff_wrt(kring.gens[0], j) for j in range(g.degree() + 1)))
    combo = [e.exquo(g) for e in combo]
    return length - s, [combo[i:i + len(v)] for i in range(
        0, len(combo), len(v))].__getitem__


def _slices(m: int):
    """Every point of Z^m, by growing max-norm: a nonzero polynomial in m
    variables is nonzero at one of them."""
    for r in itertools.count():
        for c in itertools.product(range(-r, r + 1), repeat=m):
            if max(map(abs, c)) == r:
                yield c


def _nonsingular_bound(L: DomainMatrix) -> int:
    """The largest integer root k >= 0 of det L, or -1, for L square and
    nonsingular over Z[k, consts], consts nonempty, with no determinant
    over Z[k, consts]: the candidates are the integer roots of
    det L(k, c) over Z[k] at the first slice c of :func:`_slices` where it
    is nonzero, and each, largest first, is kept when det L(k0, consts)
    = 0 over Z[consts]."""
    k, *consts = L.domain.ring.gens
    entries = L.to_list_flat()

    def det_at(values):
        vals = [e.evaluate(values) for e in entries]
        return DomainMatrix.from_list_flat(
            vals, L.shape, vals[0].ring.to_domain()).det()

    det = next(d for c in _slices(len(consts))
               if (d := det_at(list(zip(consts, c)))))
    return next((k0 for k0 in sorted(x_integer_roots(det), reverse=True)
                 if k0 >= 0 and not det_at([(k, k0)])), -1)


def degree_bound(Ps: list, c: int, s: int) -> int:
    """The largest degree of a polynomial solution y of
    sum_j P_j(x) d^j(y) = 0 (-1: y = 0 only), Ps = [P_0, ..., P_k] square
    over Z[x, consts], in a basis phi_k with d phi_k = c k phi_{k-1} and
    x phi_k = phi_{k+1} + s k phi_k.  While the leading matrix L(k) of the
    rows is singular over Q(consts)(k), each vector v of the rref basis of
    its left null space (made primitive) combines the rows into one with
    leading row 0, which replaces v's free row (:func:`_combined_row`).
    The rows are sorted by length, then by the size of their leading row,
    so that row, last in v's support, is a longest one there and the
    small rows are the pivots.  The bound is the largest integer root
    k >= 0 of det L(k), or -1.

    Over Z[k] (Hyper's C-equation, the delta side) det L is taken
    exactly, where a point would only add cost.  Over Z[k, consts] no
    determinant is formed: L full-rank at the point of
    :func:`ddsolve.fields.point_rank` is nonsingular; otherwise its exact
    left null space decides, and an empty one means nonsingular.  The
    bound of a nonsingular L is read by :func:`_nonsingular_bound` from
    one slice consts = c.

    *Validity:* every derived row is a Z[consts, k]-combination of
    shifted original equations, divided by a content free of k (a unit of
    Q(consts)), so it holds at every integer k.  A factor in k is never
    divided out: the equations at its integer roots would be lost.  At
    k = d, the top degree of a solution, every row involves y_d alone
    (y_{d+i} = 0 for i > 0), so L(d) y_d = 0 with y_d != 0 and
    det L(d) = 0.  The point only proves: a minor nonzero at the point
    is nonzero, so nonsingular there implies nonsingular, and a
    singularity is decided by the exact null space.  Every integer root
    k0 of det L, det L(k0, consts) = 0 over Z[consts], is a root of the
    nonzero slice det L(k, c), so it is among the candidates, and a
    candidate is kept only when det L(k0, consts) = 0 exactly: the
    bound is the largest nonnegative integer root of det L.

    *Termination:* a derived row is shorter than its pivot by s >= 1, so
    the total row length strictly falls.  No row can vanish: the operator
    is nonsingular (q sigma^m - N for invertible M; d I leading for delta;
    Hyper's C-equation, a nonzero element of Q(z)[x] leading) and each
    step multiplies its matrix by one invertible over Q(consts)(k)[S, S^-1],
    its pivot entries v_p S^-s / g units.  A k-free nonsingular L has a
    determinant in Q(consts), with no root."""
    kdom = _k_domain(Ps[0].domain.symbols[1:])
    rows = _operator_rows(Ps, c, s, kdom)
    while True:
        order = sorted(range(len(rows)), key=lambda r: (
            rows[r][0], sum(len(e) for e in rows[r][1](0))))
        lead = DomainMatrix([rows[r][1](0) for r in order], Ps[0].shape,
                            kdom)
        if kdom.ngens == 1:
            if det := lead.det():
                return max([-1] + [d for d in x_integer_roots(det) if d >= 0])
        elif point_rank(lead) == lead.shape[0]:
            return _nonsingular_bound(lead)
        null = lead.transpose().nullspace().to_list()
        if not null:        # nonsingular, singular at the point only
            return _nonsingular_bound(lead)
        old = [rows[r] for r in order]
        for v in null:
            g = functools.reduce(lambda a, b: a.gcd(b), v)
            rows[order[max(i for i, a in enumerate(v) if a)]] = \
                _combined_row([a.exquo(g) for a in v], old)


def ansatz_kernel(Ps: list, step: int, e: int = 1) -> list:
    """Kernel basis of the coefficient matrix of sum_j P_j D^j(y) = 0,
    Ps = [P_0, ..., P_k], in the first generator v of the ring of the
    P_j, D = sigma^step - 1 in v (step >= 1) or d/dv (step = 0), y of
    degree <= bound, the :func:`degree_bound`.  Column
    (i*(bound + 1) + dg)*e + k is the image of v^dg at position i*e + k:
    coordinate i, theta-power k on a tower of degree e."""
    bound = degree_bound(Ps, step or 1, step)
    if bound < 0:
        return []
    ring, ne = Ps[0].domain.ring, Ps[0].shape[0]
    v = ring.gens[0]
    images = [[v**dg for dg in range(bound + 1)]]      # D^j(v^dg)
    for _ in Ps[1:]:
        images.append([p.compose(v, v + step) - p if step else p.diff(v)
                       for p in images[-1]])
    Ps = [P.to_list() for P in Ps]
    columns = [[sum((P[a][b] * D[dg] for P, D in zip(Ps, images)),
                    ring.zero) for a in range(ne)]
               for i in range(ne // e) for dg in range(bound + 1)
               for b in range(i * e, (i + 1) * e)]
    return kernel(_coefficient_matrix(columns, _constants(ring))).to_list()


def polynomial_solutions(M: Cleared, m: int, tower: Tower):
    """All polynomial solution vectors of sigma^m(Y) = M Y:
    :func:`ansatz_kernel` of q Delta_m Y + (q - N) Y, M = N/q the cleared
    form of a K-form, over a tower on the regular representation."""
    q, N = M.q, M.N
    qI = DomainMatrix.eye(N.shape[0], N.domain).mul(q)
    e, ne = tower.degree, N.shape[0]
    n = ne // e
    xK = QQ_XT.gens[0]
    sols = []
    for vec in ansatz_kernel([qI - N, qI], m, e):
        deg = len(vec) // ne
        vec = [QQ_XT.convert_from(c, QQ_T) for c in vec]
        sols.append(regular_matrix([
            dup_strip([
                sum((vec[(i * deg + dg) * e + k] * xK**dg
                     for dg in range(deg)), QQ_XT.zero)
                for k in reversed(range(e))])
            for i in range(n)], (n, 1), tower))
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
        if has_rank(_coefficient_matrix(span + cols[:1],
                                        _constants(_XT_RING)),
                    len(span) + 1):
            indep.append(V)
            span.extend(cols)
    return indep


def rational_solutions(M: Cleared, M_inv: Cleared, m: int,
                       tower: Tower, known: Optional[list] = None) -> list:
    """Complete basis of rational solutions of sigma^m(Y) = M Y, the list
    of their K-forms, each verified by substitution; M and M_inv are the
    cleared forms of a K-form and of its inverse, which the universal
    denominator reads with the irreducible factors `known`."""
    u = universal_denominator(M, M_inv, m, known)
    su = k_shift(u, m)
    inv_u, c = QQ_XT.one / u, su / u
    basis = []
    for P in polynomial_solutions(M.scale(c.numer, c.denom), m, tower):
        # sigma^m(P/u) = M P/u, decided on P and u, P cleared once
        Pc = dm_clear(P)
        if not dm_same([(dm_shift_clear(Pc, m), u)], [(M, Pc, su)]):
            raise VerificationError(
                "rational solution failed substitution check")
        basis.append(P.mul(inv_u))
    return _constant_span_reduce(basis, tower)


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
        if has_rank(G, len(columns) * tower.degree):
            return G
    return None


def assemble_gauge(columns: list, A, R: DomainMatrix, m: int,
                   tower: Tower = TRIVIAL_TOWER):
    """G from one vector per slot (:func:`_invertible_selection`), or None;
    VerificationError, whatever the interpreter flags, unless
    sigma^m(G) R = A G for R the K-form of the diagonal of ratios, A a
    K-form or its cleared form."""
    G = _invertible_selection(columns, tower)
    if G is None:
        return None
    Gc = dm_clear(G)     # sigma^m(G) is cleared as the shift of G's form
    if not dm_same([(dm_shift_clear(Gc, m), R)], [(A, Gc)]):
        raise VerificationError("gauge postcondition violated")
    return G


def gauge_from_ratios(A: Cleared, A_inv: Cleared, ratios: DomainMatrix,
                      m: int, known: Optional[list] = None):
    """G over K with sigma^m(G) * diag(r_1, ..., r_n) = A * G, `ratios` that
    diagonal over K, assembled column-by-column from rational solutions of
    sigma^m(W) = (A/r_i) W (:func:`assemble_gauge`); None on failure.
    A and A_inv are the cleared forms of A and A^-1, each scaled per
    ratio (:meth:`~ddsolve.fields.Cleared.scale`): the inverse of A/r_i
    is r_i A^-1.  Every universal denominator divides by the irreducible
    factors `known`, which the factors of one ratio's solve join before
    the next ratio's.

    None is a complete negative answer: either some ratio has no rational
    solution, or no constant combination per slot is invertible (see
    :func:`_invertible_selection`)."""
    columns = []
    for i in range(ratios.shape[0]):
        r = ratios[i, i].element
        basis = rational_solutions(A.scale(r.denom, r.numer),
                                   A_inv.scale(r.numer, r.denom), m,
                                   TRIVIAL_TOWER, known)
        if not basis:
            return None
        columns.append(basis)
    return assemble_gauge(columns, A, ratios, m)
