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

The hyperexponential solver is deliberately restricted to diagonal,
constant, and simple-pole matrices; anything else raises UnsupportedCase.
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

from .fields import (QQ_XT, TRIVIAL_TOWER, FieldError, Tower,
                     _theta_reduction_table, dm_shift, dm_to_matrix,
                     indicial_degrees, kernel, make_tower, nullspace, shift,
                     t, theta, treduce, x)
from .difftools import standard_decompose
from .ratsol import (UnsupportedCase, _constant_span_reduce,
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
    standard_part: sp.Expr  # lambda: ratio = sigma^m(g)/g * lambda
    m: int


@dataclass
class HyperexpCandidate:
    V: sp.Matrix          # rational vector part over the tower
    certificate: sp.Expr  # delta(h) = certificate * h
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
    for op in scalar_operators(M, m, TRIVIAL_TOWER):
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
        sd = standard_decompose(r, m)
        g_K = QQ_XT.from_sympy(sd.g)
        span = spans.setdefault(sd.standard_part, [])
        for W in rational_solutions(M.mul(QQ_XT.one / r_K), m,
                                    TRIVIAL_TOWER).basis:
            if dm_shift(W, m).mul(r_K) != M * W:
                raise VerificationError(
                    "hypergeometric candidate failed substitution check")
            gW = W.mul(g_K)
            kept = _constant_span_reduce(span + [gW], TRIVIAL_TOWER)
            if len(kept) > len(span):
                span.append(gW)
                out.append(HypergeometricCandidate(W, r, sd.standard_part,
                                                   m))
    return out


# ---------------------------------------------------------------------------
# hyperexponential solutions of delta(Y) = Bhat Y over Q(t)

def _is_diagonal(B):
    n = B.shape[0]
    return all(sp.cancel(B[i, j]) == 0 for i in range(n) for j in range(n) if i != j)


def _eigen_candidates(C: sp.Matrix, allow_tower=True):
    """(eigenvalue, eigenvector, tower) triples over Q(t) or one extension."""
    Y = sp.Symbol("_Y")
    cp = sp.cancel(sp.expand(C.charpoly(Y).as_expr()))
    P = sp.Poly(cp, Y, domain=sp.QQ.frac_field(t))
    pairs = []
    for fac, _mult in P.factor_list()[1]:
        if fac.degree() == 1:
            lam = sp.cancel(-P.domain.to_sympy(fac.monic().all_coeffs()[1]))
            pairs.append((lam, TRIVIAL_TOWER))
        elif allow_tower:
            tower = make_tower(fac.monic().as_expr().subs(Y, theta))
            pairs.extend((conj, tower) for conj in tower.conjugates())
    return [(lam, v, tower) for lam, tower in pairs
            for v in nullspace(C - lam * sp.eye(C.shape[0]), tower)]


def _collect_equations(expr, tower: Tower, var: sp.Symbol = x):
    """Split a polynomial identity in var (and theta) into equations for
    its coefficients, linear in whatever unknown symbols appear."""
    expr = sp.expand(expr)
    expr = _theta_reduction_table(expr, tower)
    if expr == 0:
        return []
    gens = (var, theta) if theta in expr.free_symbols else (var,)
    return [sp.sympify(c) for c in sp.Poly(expr, *gens).coeffs()]


def _nullspace_over_Qt(equations, unknowns):
    """Basis of the solutions of homogeneous linear equations, exact over
    the field of their coefficients (Q, Q(t), Q(x, t) or a number field).

    The basis is the one Matrix.nullspace returns, in the same order: the
    reduced row echelon form is unique, and the vector of the k-th free
    unknown has 1 there and -rref[i][k] at the i-th pivot unknown."""
    eqs = [e for e in equations if e != 0]
    if not eqs:
        return [sp.eye(len(unknowns))[:, i] for i in range(len(unknowns))]
    Amat, rhs = sp.linear_eq_to_matrix(eqs, unknowns)
    if not rhs.is_zero_matrix:
        raise VerificationError("equations are not homogeneous")
    dm = DomainMatrix.from_list_sympy(*Amat.shape, Amat.tolist(),
                                      field=True, extension=True)
    K = dm.domain
    if K.is_EX:
        raise FieldError("linear equations are not over a field of "
                         "rational functions or numbers")
    return [sp.Matrix([K.to_sympy(c) for c in row])
            for row in kernel(dm).to_list()]


def _diff_rational_solutions(C: sp.Matrix, tower: Tower):
    """Rational solutions of delta(V) = C V for C over Q(t) (or tower) with
    at most simple finite poles; desk-scale ansatz solve."""
    n = C.shape[0]
    # poles and residue matrices
    dens = sp.Integer(1)
    for e in C:
        dens = sp.lcm(dens, sp.together(sp.cancel(e)).as_numer_denom()[1])
    _, facs = sp.factor_list(sp.expand(dens), t)
    denom = sp.Integer(1)
    degbound = 0
    for fac, mult in [(f, m_) for f, m_ in facs if t in f.free_symbols]:
        if mult > 1 or sp.degree(fac, t) != 1:
            raise UnsupportedCase("finite pole not simple and rational")
        a = sp.cancel(-fac.subs(t, 0) / sp.LC(fac, t))
        R = ((t - a) * C).applyfunc(lambda e: sp.cancel(sp.cancel(e).subs(t, a)))
        eigs = [lam for lam, _v, tw in _eigen_candidates(R, allow_tower=False)
                if lam.is_Integer]
        dk = max([0] + [-int(l) for l in eigs if l < 0])
        denom = denom * (t - a) ** dk
    # degree bound at infinity from the 1/t residue of C; when C has a
    # nonzero finite part at infinity the residue analysis does not apply,
    # so use a slack ansatz bound instead (returned solutions stay verified)
    Cinf = (t * C).applyfunc(lambda e: sp.limit(sp.cancel(e), t, sp.oo))
    if any(v.has(sp.oo, -sp.oo, sp.zoo) for v in Cinf):
        degbound = sp.degree(sp.expand(denom), t) + n + 4
    else:
        eigs = [lam for lam, _v, tw in _eigen_candidates(Cinf, allow_tower=False)
                if lam.is_Integer]
        degbound = max([0] + [int(l) for l in eigs if l > 0]) + sp.degree(
            sp.expand(denom), t)
    cs = sp.symbols(f"_v0:{n * (degbound + 1) * tower.degree}")
    def unk(i, dg, kk):
        return cs[(i * (degbound + 1) + dg) * tower.degree + kk]
    V = sp.Matrix([[sum(unk(i, dg, kk) * theta**kk * t**dg
                        for dg in range(degbound + 1)
                        for kk in range(tower.degree))] for i in range(n)])
    dden = sp.diff(denom, t)
    # delta(V/denom) = C V/denom  =>  delta(V) - (dden/denom) V = C V
    expr = (V.applyfunc(lambda e: sp.diff(e, t))
            + V.applyfunc(lambda e: sp.diff(e, theta)) * tower.dtheta
            - (dden / denom) * V - C * V)
    eqs = []
    for i in range(n):
        num, _ = sp.together(expr[i]).as_numer_denom()
        eqs.extend(_collect_equations(num, tower, t))
    null = _nullspace_over_Qt(eqs, list(cs))
    sols = []
    for vec in null:
        sub = {cs[i]: vec[i] for i in range(len(cs))}
        Vv = (V.subs(sub) / denom).applyfunc(lambda e: treduce(e, tower))
        if any(v != 0 for v in Vv):
            sols.append(Vv)
    return sols


def hyperexp_solutions(Bhat: sp.Matrix):
    """Hyperexponential solution candidates of delta(Y) = Bhat * Y over Q(t).

    Supported: diagonal Bhat; constant Bhat (eigen-decomposition, possibly
    over a tower); Bhat with simple rational finite poles and a finite value
    at infinity.  Raises UnsupportedCase otherwise.
    """
    n = Bhat.shape[0]
    B = Bhat.applyfunc(sp.cancel)
    if x in B.free_symbols or theta in B.free_symbols:
        raise UnsupportedCase("matrix must be over Q(t)")
    if _is_diagonal(B):
        out = []
        for i in range(n):
            e = sp.zeros(n, 1)
            e[i] = 1
            out.append(HyperexpCandidate(V=e, certificate=sp.cancel(B[i, i])))
        return out
    if t not in B.free_symbols:
        out = []
        for lam, v, tw in _eigen_candidates(B):
            out.append(HyperexpCandidate(V=v, certificate=lam, tower=tw))
        if not out:
            raise UnsupportedCase("no eigenvalues within Q(t) or one extension")
        return out
    # simple-pole class
    out = []
    dens = sp.Integer(1)
    for e in B:
        dens = sp.lcm(dens, sp.together(sp.cancel(e)).as_numer_denom()[1])
    _, facs = sp.factor_list(sp.expand(dens), t)
    poles = []
    for fac, mult in [(f, m_) for f, m_ in facs if t in f.free_symbols]:
        if mult > 1 or sp.degree(fac, t) != 1:
            raise UnsupportedCase("finite pole not simple and rational")
        poles.append(sp.cancel(-fac.subs(t, 0) / sp.LC(fac, t)))
    Binf = B.applyfunc(lambda e: sp.limit(sp.cancel(e), t, sp.oo))
    if any(v in (sp.oo, -sp.oo, sp.zoo) or v.has(sp.oo) for v in Binf):
        raise UnsupportedCase("matrix grows at t = infinity")
    cand_parts = []
    for a in poles:
        R = ((t - a) * B).applyfunc(lambda e: sp.cancel(sp.cancel(e).subs(t, a)))
        lams = sorted({lam for lam, _v, tw in _eigen_candidates(R, allow_tower=False)
                       if not lam.free_symbols},
                      key=sp.default_sort_key)
        cand_parts.append([(a, lam) for lam in lams])
    mus = sorted({lam for lam, _v, tw in _eigen_candidates(Binf, allow_tower=False)
                  if not lam.free_symbols}, key=sp.default_sort_key)
    for picks in itertools.product(*cand_parts):
        for mu in mus:
            c = sp.cancel(mu + sum(lam / (t - a) for a, lam in picks))
            for V in _diff_rational_solutions(B - c * sp.eye(n), TRIVIAL_TOWER):
                resid = (V.applyfunc(lambda e: sp.diff(e, t)) + c * V - B * V)
                if all(sp.cancel(r) == 0 for r in resid):
                    if not any(sp.cancel(c - o.certificate) == 0 for o in out):
                        out.append(HyperexpCandidate(V=V, certificate=c))
    return out
