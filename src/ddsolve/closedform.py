"""Hypergeometric solutions of difference systems over Q(x) and
hyperexponential solutions of differential systems over Q(t).

petkovsek() is Petkovsek's Hyper with shift step m: it enumerates
Gosper-Petkovsek forms z * a(x)/b(x) * C(x+m)/C(x) with a | p_0 and
b(x+(k-1)m) | p_k.  The search runs in dense polynomial arithmetic over a
ground domain K: QQ, or QQ(z) when the constant z is a quadratic
irrational (z is searched in Q and quadratic extensions of Q).  Degrees
and leading coefficients of the P_i come from those of a and b, the
indicial polynomial and the linear system for C are formed over K, and
duplicate ratios are found by cross-multiplying over K.  SymPy
expressions appear only at the boundary: the coefficients are read in
from expressions, and each new ratio is built as an expression and
checked by substitution into the recurrence.

system_hypergeometric() takes the K-form of M (see :mod:`ddsolve.fields`)
and reduces sigma^m(Y) = M Y to scalar recurrences through the chain
v -> sigma^m(v) M, one per coordinate.  The ratios are deduplicated as
elements of K = Q(x, t), each is decomposed once as sigma^m(g)/g * lambda
with lambda standard, and the solutions are recovered by rational
back-substitution on K-forms.  Candidates are grouped by lambda; a g W in
the constant span of the earlier ones of its group is dropped.

hyperexp_solutions(Bhat: DomainMatrix) takes an x-free K-form and returns
candidates whose V is the K-form over their tower ((n*deg) x deg) and
whose certificate is an expression in the tower.  It is deliberately
restricted to diagonal, constant, and simple-pole matrices; anything else
raises UnsupportedCase.  The matrix is read over Q(t): its simple poles
and residue matrices, and its value at t = infinity from numerator and
denominator degrees.  Eigenvalues come from the factors over Q(t) of one
characteristic polynomial (fields.charpoly_factors), eigenvectors over a
tower from fields.kernel on K-forms.  The rational solutions of a
simple-pole system come from one coefficient matrix over Q (degrees from
ratsol.degree_bound); each candidate is checked as the K-form identity
delta(V) + c V = Bhat V.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import sympy as sp
from sympy import QQ
from sympy.polys.densearith import dup_add, dup_mul, dup_mul_ground, dup_pow
from sympy.polys.densebasic import dup_convert, dup_degree, dup_strip
from sympy.polys.densetools import dup_monic, dup_shift
from sympy.polys.factortools import dup_factor_list
from sympy.polys.matrices import DomainMatrix
from sympy.polys.polyerrors import CoercionFailed

from .fields import (QQ_T, QQ_XT, TRIVIAL_TOWER, Tower, charpoly_factors,
                     dm_delta, dm_embed, dm_from_matrix, dm_over_qt,
                     dm_same, dm_shift, dm_to_matrix, indicial_degrees,
                     kernel, make_tower, shift, theta, x)
from .difftools import standard_decompose
from .ratsol import (UnsupportedCase, _constant_span_reduce, degree_bound,
                     rational_solutions, scalar_operators)
from .sequences import VerificationError

__all__ = ["HypergeometricCandidate", "HyperexpCandidate", "UnsupportedCase",
           "petkovsek", "recurrence_polys", "system_hypergeometric",
           "hyperexp_solutions"]

_Z = sp.Symbol("_z")
_QQ_X = QQ.frac_field(x)


@dataclass
class HypergeometricCandidate:
    W: DomainMatrix         # K-form of the rational vector part
    ratio: sp.Expr          # sigma^m(h) = ratio * h, as petkovsek returns it
    standard_part: object   # lambda in K: ratio = sigma^m(g)/g * lambda
    m: int


@dataclass
class HyperexpCandidate:
    V: DomainMatrix       # K-form over the tower of the vector part
    certificate: sp.Expr  # delta(h) = certificate * h, in the tower
    tower: Tower = TRIVIAL_TOWER


# ---------------------------------------------------------------------------
# Petkovsek's Hyper.  Polynomials in x are dense lists over the ground
# domain K (QQ, or QQ(z) for a quadratic irrational z), highest degree
# first.

def recurrence_polys(pcoeffs) -> list:
    """The coefficients p_i as dense polynomials in x over Q.  ValueError
    names a coefficient outside Q[x] and an all-zero recurrence."""
    ps = []
    for p in pcoeffs:
        try:
            f = _QQ_X.from_sympy(sp.sympify(p))
        except (CoercionFailed, ValueError):
            f = None
        if f is None or not f.denom.is_ground:
            raise ValueError(f"recurrence coefficient not in Q[x]: {p}")
        ps.append(f.numer.quo_ground(f.denom.LC).to_dense())
    if not any(ps):
        raise ValueError("recurrence has only zero coefficients")
    return ps


def _monic_divisors(p: list) -> list:
    """All monic divisors of a nonzero polynomial over Q, in the order of
    its factor list, exponents of earlier factors varying slowest."""
    divisors = [[QQ.one]]
    for f, mult in dup_factor_list(p, QQ)[1]:
        f = dup_monic(f, QQ)
        divisors = [dup_mul(d, dup_pow(f, e, QQ), QQ)
                    for d in divisors for e in range(mult + 1)]
    return divisors


def _leading_roots(lead: list) -> list:
    """(z, K, z in K) for each nonzero root z of `lead` (a dense
    polynomial over Q) that is rational, K = QQ, or quadratic over Q, K =
    QQ(z), in the order and the SymPy form (after radsimp) of
    sp.roots(lead)."""
    roots = []
    for f, _ in dup_factor_list(lead, QQ)[1]:
        if len(f) == 2 and f[1]:
            r = -f[1] / f[0]
            roots.append((QQ.to_sympy(r), QQ, r))
        elif len(f) == 3:
            q = sp.Poly(f, _Z, domain=QQ)
            for r in sp.roots(q, multiple=True):
                K = QQ.algebraic_field((q.monic(), sp.radsimp(r)))
                roots.append((r, K, K.unit))
    order = {e: i for i, e in enumerate(sp.ordered([r[0] for r in roots]))}
    return [(sp.radsimp(r), K, z)
            for r, K, z in sorted(roots, key=lambda r: order[r[0]])]


def _polynomial_kernel(Q: list, m: int, bound: int, K):
    """A nonzero C over K of degree <= bound with
    sum_i Q_i(x) C(x + m*i) = 0, or None: the first vector of the
    null-space basis of the coefficient equations (all ones when every
    equation is zero)."""
    cols = []
    terms = list(Q)             # Q_i(x) (x + m*i)^j for j = 0, 1, ...
    for j in range(bound + 1):
        if j:
            terms = [dup_mul(q, [K.one, K(m * i)], K)
                     for i, q in enumerate(terms)]
        col = []
        for q in terms:
            col = dup_add(col, q, K)
        cols.append(col[::-1])
    rows = max(len(c) for c in cols)
    if not rows:
        vec = [K.one] * (bound + 1)
    else:
        M = DomainMatrix([[c[e] if e < len(c) else K.zero for c in cols]
                          for e in range(rows)], (rows, bound + 1), K)
        null = kernel(M).to_list()
        if not null:
            return None
        vec = null[0]
    return dup_strip(vec[::-1]) or None


def _expr(p: list, K) -> sp.Expr:
    return sp.expand(sp.Add(*(K.to_sympy(c) * x**k
                              for k, c in enumerate(reversed(p)))))


def petkovsek(pcoeffs, m: int = 1):
    """All rational ratios r with a nonzero solution of
    sum_i p_i(x) y(x + m*i) = 0 satisfying sigma^m(y) = r*y.

    Constants are searched in Q and quadratic extensions of Q; the p_i
    must lie in Q[x] (ValueError otherwise, see :func:`recurrence_polys`).
    """
    ps = recurrence_polys(pcoeffs)
    # drop zero coefficients at both ends: if p_0 = ... = p_{i0-1} = 0,
    # rewrite in x - m*i0 so that the trailing coefficient is nonzero
    while not ps[-1]:
        ps.pop()
    i0 = next(i for i, p in enumerate(ps) if p)
    ps = [dup_shift(p, QQ(-m * i0), QQ) for p in ps[i0:]]
    k = len(ps) - 1
    if k == 0:
        return []

    def with_shifts(divisors):
        return [(f, [dup_shift(f, QQ(j * m), QQ) for j in range(k)])
                for f in divisors]

    found = []                  # (r, K, numerator, denominator of r)
    roots_of = {}               # leading polynomial -> _leading_roots
    bs = with_shifts(_monic_divisors(dup_shift(ps[k], QQ(-(k - 1) * m), QQ)))
    for a, A in with_shifts(_monic_divisors(ps[0])):
        for b, B in bs:
            # P_i = p_i * a(x) ... a(x+(i-1)m) * b(x+im) ... b(x+(k-1)m);
            # a and b are monic, so degree and leading coefficient of P_i
            # come without the product
            pdeg = [dup_degree(p) + i * dup_degree(a)
                    + (k - i) * dup_degree(b) if p else -1
                    for i, p in enumerate(ps)]
            top = max(pdeg)
            lead = tuple(dup_strip([p[0] if dg == top else QQ.zero
                                    for dg, p in zip(reversed(pdeg),
                                                     reversed(ps))]))
            if lead not in roots_of:
                roots_of[lead] = _leading_roots(list(lead))
            if not roots_of[lead]:
                continue
            P = []
            for i, p in enumerate(ps):
                for f in A[:i] + B[i:]:
                    p = dup_mul(p, f, QQ)
                P.append(p)
            for zexpr, K, z in roots_of[lead]:
                Q, zi = [], K.one
                for p in P:
                    Q.append(dup_mul_ground(dup_convert(p, QQ, K), zi, K))
                    zi = zi * z
                bounds = indicial_degrees(Q, m, K)
                if not bounds:
                    continue
                C = _polynomial_kernel(Q, m, max(bounds), K)
                if C is None:
                    continue
                aK, bK = dup_convert(a, QQ, K), dup_convert(b, QQ, K)
                num = dup_mul_ground(
                    dup_mul(aK, dup_shift(C, K(m), K), K), z, K)
                den = dup_mul(bK, C, K)
                if any(K2 == K and dup_mul(num, d2, K) == dup_mul(n2, den, K)
                       for _, K2, n2, d2 in found):
                    continue
                found.append((_ratio_expr(zexpr, a, b, C, K, ps, m),
                              K, num, den))
    return [r for r, *_ in found]


def _ratio_expr(zexpr, a, b, C, K, ps, m):
    """The ratio z*a/b*C(x+m)/C as an expression, checked by substitution
    into the recurrence."""
    Ce = _expr(C, K)
    r = sp.radsimp(sp.cancel(zexpr * _expr(a, QQ) / _expr(b, QQ)
                             * shift(Ce, m) / Ce))
    resid = sum(_expr(p, QQ) * sp.prod([shift(r, j * m) for j in range(i)])
                for i, p in enumerate(ps))
    if sp.simplify(sp.cancel(resid)) != 0:
        raise VerificationError(
            f"hypergeometric ratio failed substitution check: {r}")
    return r


# ---------------------------------------------------------------------------
# hypergeometric solutions of systems

def system_hypergeometric(M: DomainMatrix, m: int = 1):
    """Hypergeometric solution candidates (W, r) of sigma^m(Y) = MY over
    Q(x), M a K-form: chain operators -> petkovsek ratios -> rational
    back-substitution, every candidate verified.

    With r = sigma^m(g)/g * lambda, lambda standard, the candidate stands
    for the solution g W h, sigma^m(h) = lambda h; a g W in the constant
    span of the earlier ones with the same lambda adds nothing and is
    dropped."""
    ratios = {}                 # r in K -> r as petkovsek returns it
    for op in scalar_operators(M, m):
        for r in petkovsek(list(dm_to_matrix(op)), m):
            try:
                ratios.setdefault(QQ_XT.from_sympy(r), r)
            except (CoercionFailed, ValueError):
                # a quadratic constant: the back-substitution works over K
                raise UnsupportedCase(
                    f"hypergeometric ratio not in Q(x, t): {r}") from None
    spans = {}                  # lambda -> the kept g W
    out = []
    for r_K, r in ratios.items():
        sd = standard_decompose(r_K, m)
        span = spans.setdefault(sd.standard_part, [])
        for W in rational_solutions(M.mul(QQ_XT.one / r_K), m,
                                    TRIVIAL_TOWER).basis:
            if not dm_same([(dm_shift(W, m), r_K)], [(M, W)]):
                raise VerificationError(
                    "hypergeometric candidate failed substitution check")
            gW = W.mul(sd.g)
            kept = _constant_span_reduce(span + [gW], TRIVIAL_TOWER)
            if len(kept) > len(span):
                span.append(gW)
                out.append(HypergeometricCandidate(W, r, sd.standard_part,
                                                   m))
    return out


# ---------------------------------------------------------------------------
# hyperexponential solutions of delta(Y) = Bhat Y over Q(t).  Bhat is an
# x-free K-form; poles, values at infinity and the rational ansatz are
# read on it over Q(t)

_T = QQ_T.gens[0]                   # t in Q(t)
_T_RING = QQ_T.field.ring           # Q[t]
_T_POLY = _T_RING.gens[0]           # t in Q[t]


def _simple_poles(C: DomainMatrix) -> list:
    """(a, residue matrix of C at t = a) for each finite pole a of the
    matrix C over Q(t), ordered as the primitive factors q*t - p of
    factor_list on an expression (by q, then -p); UnsupportedCase when a
    pole is not simple and rational."""
    poles = []
    for f, mult in C.clear_denoms()[0].element.factor_list()[1]:
        if mult > 1 or f.degree() != 1:
            raise UnsupportedCase("finite pole not simple and rational")
        poles.append(-f.coeff(1) / f.LC)
    poles.sort(key=lambda a: (a.denominator, -a.numerator))
    return [(a, C.mul(_T - a).applyfunc(
        lambda c: QQ_T(c.numer(a) / c.denom(a)))) for a in poles]


def _at_infinity(C: DomainMatrix):
    """The value at t = infinity of the matrix C over Q(t), read from the
    degrees of numerator and denominator of each entry; None when an
    entry grows there."""
    if any(c.numer.degree() > c.denom.degree() for c in C.to_list_flat()):
        return None
    return C.applyfunc(lambda c: QQ_T(c.numer.LC / c.denom.LC)
                       if c.numer.degree() == c.denom.degree()
                       else QQ_T.zero)


def _rational_eigenvalues(R: DomainMatrix) -> list:
    """The distinct eigenvalues in Q of the constant matrix R over Q(t),
    ascending."""
    roots = (-f.rep.to_list()[1] for f, _ in charpoly_factors(R)
             if f.degree() == 1)
    return sorted({r.numer.LC / r.denom.LC for r in roots})


def _eigen_candidates(C: DomainMatrix) -> list:
    """The candidates of the constant K-form C: each eigenvalue over Q(t),
    or over the tower of an irreducible factor of the characteristic
    polynomial, with one eigenvector per kernel vector of C - lam*I over
    its tower (see fields.kernel)."""
    n = C.shape[0]
    pairs = []
    for f, _ in charpoly_factors(C):
        if f.degree() == 1:
            pairs.append((QQ_T.to_sympy(-f.rep.to_list()[1]), TRIVIAL_TOWER))
        else:
            tower = make_tower(f.as_expr(theta))
            pairs.extend((conj, tower) for conj in tower.conjugates())
    out = []
    for lam, tower in pairs:
        e = tower.degree
        N = kernel(dm_embed(C, tower)
                   - dm_from_matrix(lam * sp.eye(n), tower)).transpose()
        out.extend(HyperexpCandidate(
            N.extract(range(n * e), range(j * e, (j + 1) * e)), lam, tower)
            for j in range(N.shape[1] // e))
    return out


def _t_coefficient_matrix(columns: list) -> DomainMatrix:
    """The matrix over Q whose j-th column lists the coefficients in t of
    the polynomials columns[j] (over Q[t]), one row per (position, power
    of t) that occurs."""
    rows: dict = {}
    for j, col in enumerate(columns):
        for a, p in enumerate(col):
            for (k,), c in p.terms():
                rows.setdefault((a, k), [QQ.zero] * len(columns))[j] = c
    return DomainMatrix([rows[key] for key in sorted(rows)],
                        (len(rows), len(columns)), QQ)


def _diff_rational_solutions(C: DomainMatrix) -> list:
    """Rational solutions of delta(V) = C V, C over Q(t) with at most
    simple rational finite poles, as K-forms.

    A pole a of V has order at most the largest -l over the negative
    integer eigenvalues l of the residue of C at a, which gives the
    denominator den of V.  With C = N/d, the numerators P = den V solve
    P1 P' + P0 P = 0, P1 = d den and P0 = -(d den' + den N), linear over Q
    in the coefficients of P, unknowns ordered by (coordinate, degree);
    :func:`ddsolve.ratsol.degree_bound` bounds deg P in the monomials t^k
    (c = 1, s = 0)."""
    n = C.shape[0]
    den = _T_RING.one
    for a, R in _simple_poles(C):
        den *= (_T_POLY - a) ** max([0] + [
            -int(lam) for lam in _rational_eigenvalues(R)
            if lam.denominator == 1 and lam < 0])
    d, N = C.clear_denoms(convert=True)
    eye, d = DomainMatrix.eye(n, N.domain), d.element
    P1 = eye.mul(d * den)
    P0 = -(eye.mul(d * den.diff(_T_POLY)) + N.mul(den))
    bound = degree_bound(P1, P0, 1, 0)
    P1, P0 = P1.to_list(), P0.to_list()
    # the images of P = t^dg at coordinate i
    columns = [[P1[a][i] * p.diff(_T_POLY) + P0[a][i] * p for a in range(n)]
               for i in range(n)
               for p in (_T_POLY**dg for dg in range(bound + 1))]
    b = bound + 1
    return [DomainMatrix([[QQ_XT.convert_from(QQ_T.field.new(
        _T_RING.from_list(vec[i * b:(i + 1) * b][::-1]), den), QQ_T)]
        for i in range(n)], (n, 1), QQ_XT)
        for vec in kernel(_t_coefficient_matrix(columns)).to_list()]


def hyperexp_solutions(Bhat: DomainMatrix):
    """Hyperexponential solution candidates of delta(Y) = Bhat * Y over
    Q(t), Bhat an x-free K-form.

    Supported: diagonal Bhat; constant Bhat (eigen-decomposition, possibly
    over a tower); Bhat with simple rational finite poles and a finite
    value at infinity, whose certificates are mu + sum lam_a/(t - a) over
    the rational eigenvalues lam_a of the residues and mu of the value at
    infinity.  Raises UnsupportedCase otherwise.  Each candidate's V is
    the K-form over its tower of the vector part, (n*deg) x deg.
    """
    n = Bhat.shape[0]
    B = dm_over_qt(Bhat)
    if B is None:
        raise UnsupportedCase("matrix must be over Q(t)")
    if Bhat.is_diagonal:
        return [HyperexpCandidate(
            V=DomainMatrix.eye(n, QQ_XT).extract(range(n), [i]),
            certificate=QQ_T.to_sympy(B[i, i].element)) for i in range(n)]
    if all(c.numer.is_ground and c.denom.is_ground
           for c in B.to_dok().values()):
        return _eigen_candidates(Bhat)
    poles = _simple_poles(B)
    Binf = _at_infinity(B)
    if Binf is None:
        raise UnsupportedCase("matrix grows at t = infinity")
    cand_parts = [[(a, lam) for lam in _rational_eigenvalues(R)]
                  for a, R in poles]
    out = []
    for picks in itertools.product(*cand_parts):
        for mu in _rational_eigenvalues(Binf):
            c = sum((lam / (_T - a) for a, lam in picks), QQ_T(mu))
            cK = QQ_XT.convert_from(c, QQ_T)
            for V in _diff_rational_solutions(
                    B - DomainMatrix.eye(n, QQ_T).mul(c)):
                if not dm_same([(dm_delta(V),), (V, cK)], [(Bhat, V)]):
                    raise VerificationError(
                        "hyperexponential candidate failed substitution "
                        "check")
                out.append(HyperexpCandidate(V=V,
                                             certificate=QQ_T.to_sympy(c)))
    return out
