"""Hypergeometric solutions of difference systems over Q(x) and
hyperexponential solutions of differential systems over Q(t), desk scale.

petkovsek() enumerates Gosper-Petkovsek forms z * a(x)/b(x) * c(x+m)/c(x)
with a | p_0 and b(x+(k-1)m) | p_k; constants z are accepted from Q or one
quadratic extension.  Systems are reduced to scalar recurrences through the
chain v -> sigma^m(v) M, one per coordinate, and solutions recovered by
rational back-substitution.

The hyperexponential solver is deliberately restricted to diagonal,
constant, and simple-pole matrices; anything else raises UnsupportedCase.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import sympy as sp

from .fields import (TRIVIAL_TOWER, FieldError, Tower, make_tower, mat_reduce,
                     mat_shift, nullspace, shift, t, theta, treduce, x)
from .difftools import standard_decompose
from .ratsol import (UnsupportedCase, _collect_equations, _nullspace_over_Qt,
                     _scalar_degree_candidates, rational_solutions,
                     scalar_operators)
from .sequences import VerificationError

__all__ = ["HypergeometricCandidate", "HyperexpCandidate", "UnsupportedCase",
           "petkovsek", "system_hypergeometric", "hyperexp_solutions"]


@dataclass
class HypergeometricCandidate:
    W: sp.Matrix          # rational vector part
    ratio: sp.Expr        # sigma^m(h) = ratio * h
    m: int


@dataclass
class HyperexpCandidate:
    V: sp.Matrix          # rational vector part over the tower
    certificate: sp.Expr  # delta(h) = certificate * h
    tower: Tower = TRIVIAL_TOWER


# ---------------------------------------------------------------------------
# Petkovsek, with shift step m

def _monic_divisors(p):
    """All monic divisors in x of a polynomial over Q (constants dropped)."""
    if p == 0:
        return [sp.Integer(1)]
    _, factors = sp.factor_list(sp.expand(p), x)
    factors = [(f, m) for f, m in factors if x in f.free_symbols]
    divisors = [sp.Integer(1)]
    for f, mult in factors:
        lc = sp.LC(f, x)
        fm = sp.expand(f / lc)
        divisors = [d * fm**e for d in divisors for e in range(mult + 1)]
    return [sp.expand(d) for d in divisors]


def _algebraic_roots(poly_in_z, z):
    """Roots in Q or a quadratic extension of Q."""
    out = []
    for r in sp.roots(sp.Poly(poly_in_z, z), multiple=True):
        if r == 0:
            continue
        try:
            deg = sp.minimal_polynomial(r, z).as_poly(z).degree()
        except Exception:
            continue
        if deg <= 2 and not any(sp.simplify(r - o) == 0 for o in out):
            out.append(sp.radsimp(r))
    return out


def _normalize_recurrence(pcoeffs, m):
    """Drop leading zero coefficients: if p_0 = ... = p_{i0-1} = 0, rewrite
    in the shifted variable so the trailing coefficient is nonzero."""
    ps = [sp.expand(p) for p in pcoeffs]
    while ps and ps[-1] == 0:
        ps.pop()
    i0 = next(i for i, p in enumerate(ps) if p != 0)
    if i0:
        ps = [shift(p, -m * i0) for p in ps[i0:]]
    return ps


def petkovsek(pcoeffs, m: int = 1):
    """All rational ratios r with a nonzero solution of
    sum_i p_i(x) y(x + m*i) = 0 satisfying sigma^m(y) = r*y.

    Constants are searched in Q and quadratic extensions of Q; coefficients
    must be polynomials over Q (t-free).
    """
    ps = _normalize_recurrence(pcoeffs, m)
    k = len(ps) - 1
    if k == 0:
        return []
    z = sp.Symbol("_z")
    ratios = []
    for a in _monic_divisors(ps[0]):
        for b in _monic_divisors(shift(ps[k], -(k - 1) * m)):
            P = []
            for i in range(k + 1):
                Pi = ps[i]
                for j in range(i):
                    Pi = Pi * shift(a, j * m)
                for j in range(i, k):
                    Pi = Pi * shift(b, j * m)
                P.append(sp.expand(Pi))
            mdeg = max(sp.degree(Pi, x) for Pi in P)
            lead = sum(sp.LC(P[i], x) * z**i if sp.degree(P[i], x) == mdeg else 0
                       for i in range(k + 1))
            if lead == 0:
                continue
            for zz in _algebraic_roots(lead, z):
                Q = [sp.expand(zz**i * P[i]) for i in range(k + 1)]
                degs = _scalar_degree_candidates(Q, m, TRIVIAL_TOWER)
                if not degs:
                    continue
                C = _polynomial_kernel(Q, m, max(degs))
                if C is None:
                    continue
                r = sp.radsimp(sp.cancel(zz * a / b * shift(C, m) / C))
                if not any(sp.simplify(r - r2) == 0 for r2 in ratios):
                    # substitution check on the product form
                    resid = sum(ps[i] * sp.prod([r.subs(x, x + j * m)
                                                 for j in range(i)])
                                for i in range(len(ps)))
                    if sp.simplify(sp.cancel(resid)) == 0:
                        ratios.append(r)
    return ratios


def _polynomial_kernel(Q, m, degree_bound):
    """A nonzero polynomial C with sum_i Q_i(x) C(x + m*i) = 0, or None."""
    cs = sp.symbols(f"_k0:{degree_bound + 1}")
    C = sum(cs[j] * x**j for j in range(degree_bound + 1))
    expr = sp.expand(sum(Q[i] * C.subs(x, x + m * i) for i in range(len(Q))))
    if expr == 0:
        vec = [1] * len(cs)
    else:
        null = _nullspace_over_Qt(sp.Poly(expr, x).coeffs(), list(cs))
        if not null:
            return None
        vec = null[0]
    Cval = sp.expand(C.subs(dict(zip(cs, vec))))
    return Cval if Cval != 0 else None


# ---------------------------------------------------------------------------
# hypergeometric solutions of systems

def _canonical_candidate(W, r, m):
    """Push the sigma^m(g)/g part of the ratio into the vector so equivalent
    candidates compare equal."""
    sd = standard_decompose(r, m)
    Wc = mat_reduce(W * sd.g)
    # normalize by the first nonzero entry's leading content
    piv = next((w for w in Wc if sp.cancel(w) != 0), None)
    if piv is not None:
        num, den = sp.fraction(sp.cancel(piv))
        lc = sp.LC(sp.expand(num), x) / sp.LC(sp.expand(den), x)
        if lc != 0 and not lc.free_symbols:
            Wc = mat_reduce(Wc / lc)
    return Wc, sp.cancel(sd.standard_part)


def system_hypergeometric(M: sp.Matrix, m: int = 1):
    """All hypergeometric solution candidates (W, r) of sigma^m(Y) = MY
    over Q(x): chain operators -> petkovsek ratios -> rational
    back-substitution, every candidate verified."""
    ratios = []
    for op in scalar_operators(M, m, TRIVIAL_TOWER):
        for r in petkovsek(op, m):
            try:
                treduce(r)
            except FieldError:
                # a quadratic constant: the back-substitution works over K
                raise UnsupportedCase(
                    f"hypergeometric ratio not in Q(x, t): {r}") from None
            if not any(sp.cancel(r - r2) == 0 for r2 in ratios):
                ratios.append(r)
    seen = []
    out = []
    for r in ratios:
        Mi = mat_reduce(M / r)
        for W in rational_solutions(Mi, m, TRIVIAL_TOWER).basis:
            resid = mat_shift(W, m) * r - mat_reduce(M * W)
            if not all(sp.cancel(e) == 0 for e in resid):
                raise VerificationError(
                    "hypergeometric candidate failed substitution check")
            Wc, rc = _canonical_candidate(W, r, m)
            key_new = True
            for Ws, rs in seen:
                if sp.cancel(rs - rc) == 0:
                    # proportional over constants?
                    lam = None
                    ok = True
                    for a, b in zip(Wc, Ws):
                        a, b = sp.cancel(a), sp.cancel(b)
                        if a == 0 and b == 0:
                            continue
                        if (a == 0) != (b == 0):
                            ok = False
                            break
                        q = sp.cancel(a / b)
                        if x in q.free_symbols:
                            ok = False
                            break
                        if lam is None:
                            lam = q
                        elif sp.cancel(q - lam) != 0:
                            ok = False
                            break
                    if ok:
                        key_new = False
                        break
            if key_new:
                seen.append((Wc, rc))
                out.append(HypergeometricCandidate(W=W, ratio=r, m=m))
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
