"""Checks the tests share: matrix equality over a tower, and standardness
of a rational function with respect to sigma^m."""

import sympy as sp

from ddsolve.difftools import dispersion
from ddsolve.fields import TRIVIAL_TOWER, Tower, treduce


def mat_eq(A: sp.Matrix, B: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> bool:
    return A.shape == B.shape and mat_is_zero(A - B, tower)


def mat_is_zero(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> bool:
    return all(treduce(e, tower) == 0 for e in M)


def is_standard(f, m: int) -> bool:
    num, den = treduce(f).as_numer_denom()
    return dispersion(sp.expand(num * den)) < m


# ---------------------------------------------------------------------------
# reference Hyper: the SymPy Expr implementation closedform.petkovsek
# replaced, kept to pin the ordered ratio list (srepr included)

def reference_petkovsek(pcoeffs, m: int = 1):
    """All ratios of hypergeometric solutions of
    sum_i p_i(x) y(x + m*i) = 0, by Expr products, expand, degree and LC
    on every divisor pair, and sp.roots for the leading constant."""
    from ddsolve.fields import shift, x

    ps = [sp.expand(p) for p in pcoeffs]
    while ps and ps[-1] == 0:
        ps.pop()
    i0 = next(i for i, p in enumerate(ps) if p != 0)
    if i0:
        ps = [shift(p, -m * i0) for p in ps[i0:]]
    k = len(ps) - 1
    if k == 0:
        return []
    z = sp.Symbol("_z")
    ratios = []
    for a in _reference_monic_divisors(ps[0], x):
        for b in _reference_monic_divisors(shift(ps[k], -(k - 1) * m), x):
            P = []
            for i in range(k + 1):
                Pi = ps[i]
                for j in range(i):
                    Pi = Pi * shift(a, j * m)
                for j in range(i, k):
                    Pi = Pi * shift(b, j * m)
                P.append(sp.expand(Pi))
            mdeg = max(sp.degree(Pi, x) for Pi in P)
            lead = sum(sp.LC(P[i], x) * z**i
                       if sp.degree(P[i], x) == mdeg else 0
                       for i in range(k + 1))
            if lead == 0:
                continue
            for zz in _reference_algebraic_roots(lead, z):
                Q = [sp.expand(zz**i * P[i]) for i in range(k + 1)]
                degs = _reference_degree_candidates(Q, m, x)
                if not degs:
                    continue
                C = _reference_polynomial_kernel(Q, m, max(degs), x)
                if C is None:
                    continue
                r = sp.radsimp(sp.cancel(zz * a / b * shift(C, m) / C))
                if not any(sp.simplify(r - r2) == 0 for r2 in ratios):
                    resid = sum(ps[i] * sp.prod([r.subs(x, x + j * m)
                                                 for j in range(i)])
                                for i in range(len(ps)))
                    if sp.simplify(sp.cancel(resid)) == 0:
                        ratios.append(r)
    return ratios


def _reference_monic_divisors(p, x):
    _, factors = sp.factor_list(sp.expand(p), x)
    factors = [(f, m) for f, m in factors if x in f.free_symbols]
    divisors = [sp.Integer(1)]
    for f, mult in factors:
        fm = sp.expand(f / sp.LC(f, x))
        divisors = [d * fm**e for d in divisors for e in range(mult + 1)]
    return [sp.expand(d) for d in divisors]


def _reference_algebraic_roots(poly_in_z, z):
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


def _reference_polynomial_kernel(Q, m, degree_bound, x):
    from ddsolve.ratsol import _nullspace_over_Qt

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


def _reference_degree_candidates(Q, m, x, rmax=80):
    D = max(sp.degree(q, x) if q != 0 else -sp.oo for q in Q)
    d = sp.Symbol("_d")
    polys = [sp.Poly(q, x) if q != 0 else None for q in Q]

    def coeff(i, u):
        if polys[i] is None or not 0 <= D - u <= polys[i].degree():
            return sp.Integer(0)
        return sp.sympify(polys[i].coeff_monomial(x ** (D - u)))

    for r in range(rmax + 1):
        phi = sp.Integer(0)
        for i in range(len(Q)):
            for s in range(r + 1):
                c = coeff(i, r - s)
                if c != 0:
                    phi += c * sp.ff(d, s) / sp.factorial(s) * (m * i) ** s
        num = sp.expand(sp.together(sp.expand(phi)).as_numer_denom()[0])
        if num != 0:
            return sorted(int(z) for z in sp.Poly(num, d).ground_roots()
                          if z.is_Integer and z >= 0)
    return None
