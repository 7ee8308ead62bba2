"""Rational solutions of sigma^m(Y) = M Y over Q(t)(x) or the tower.

The pipeline is the classical one: an Abramov-style universal denominator
from the shift-class analysis of den(M) against den(M^-1), then polynomial
solutions with a degree bound read off the expansion at x = infinity, then
exact substitution checks on everything returned.

A pole of a solution at c propagates through Y(x+m) = M(x)Y(x): going down
there must be s >= 1 with den(M)(c - s*m) = 0, going up s >= 0 with
den(M^-1)(c + s*m) = 0.  That traps candidate poles (per shift class and
residue mod m) in a finite window with explicit multiplicity bounds.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import sympy as sp
from sympy.polys.matrices import DomainMatrix

from .fields import (TRIVIAL_TOWER, FieldError, Tower, factor_in_x, mat_inv,
                     mat_reduce, mat_shift, shift, t, theta, tinv, treduce, x)
from .difftools import shift_equivalent
from .moser import infinity_expansion
from .sequences import VerificationError

__all__ = ["SolverConfig", "RationalSolutionBasis", "BoundExceededWarning",
           "universal_denominator", "polynomial_solutions",
           "rational_solutions", "gauge_from_ratios"]


class BoundExceededWarning(UserWarning):
    """Degree-bound analysis was inconclusive and the configured cap was used."""


@dataclass
class SolverConfig:
    degree_cap: int = 50          # fallback polynomial degree bound
    denominator_margin: int = 0   # extra m-shifts added around each pole window


DEFAULT_CONFIG = SolverConfig()


@dataclass
class RationalSolutionBasis:
    m: int
    basis: list  # column vectors (sympy Matrix n x 1)


# ---------------------------------------------------------------------------
# universal denominator

def _denominator_factors(M: sp.Matrix, tower: Tower):
    """Shift-class factor data {(class_index, shift): mult} of lcm of entry
    denominators, together with the class bases."""
    dens = []
    for e in M:
        e = treduce(e, tower)
        d = sp.together(e).as_numer_denom()[1]
        if x in d.free_symbols:
            dens.append(d)
    if not dens:
        return sp.Integer(1)
    lcm = dens[0]
    for d in dens[1:]:
        lcm = sp.lcm(lcm, d)
    return sp.expand(lcm)


def universal_denominator(M: sp.Matrix, m: int = 1,
                          tower: Tower = TRIVIAL_TOWER,
                          config: SolverConfig = DEFAULT_CONFIG):
    """Polynomial u(x): every rational solution of sigma^m(Y)=MY has
    denominator dividing u."""
    denA = _denominator_factors(M, tower)
    denB = _denominator_factors(mat_inv(M, tower), tower)
    _, facA = factor_in_x(denA, tower) if denA != 1 else (1, [])
    _, facB = factor_in_x(denB, tower) if denB != 1 else (1, [])
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
    u = sp.Integer(1)
    marg = config.denominator_margin
    for base, SA, SB in classes:
        residues = {a % m for a in SA} & {b % m for b in SB}
        for rho in residues:
            # a factor b(x+k) vanishes at root(b) - k: larger shift k means a
            # pole further left, so the solution-pole window in shift
            # coordinates runs from min(B-shifts) up to max(A-shifts) - m
            As = {a: mu for a, mu in SA.items() if a % m == rho}
            Bs = {b: mu for b, mu in SB.items() if b % m == rho}
            lo = min(Bs) - marg * m
            hi = max(As) - m + marg * m
            k = lo
            while k <= hi:
                mult = min(sum(mu for a, mu in As.items() if a >= k + m - marg * m),
                           sum(mu for b, mu in Bs.items() if b <= k + marg * m))
                if mult > 0:
                    u = u * shift(base, k) ** mult
                k += m
    return sp.expand(u)


# ---------------------------------------------------------------------------
# polynomial solutions

def _theta_reduction_table(expr, tower: Tower):
    """Rewrite theta powers >= degree using the minimal polynomial."""
    if tower.trivial or theta not in expr.free_symbols:
        return expr
    p = sp.Poly(expr, theta)
    e = tower.degree
    maxpow = p.degree()
    red = {k: theta**k for k in range(min(maxpow, e - 1) + 1)}
    for k in range(e, maxpow + 1):
        red[k] = sp.expand(treduce(theta**k, tower))
    out = sp.Integer(0)
    for (k,), c in zip(p.monoms(), p.coeffs()):
        out += sp.sympify(c) * red[k]
    return sp.expand(out)


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
    rref, pivots = dm.rref()
    return [sp.Matrix([K.to_sympy(c) for c in row])
            for row in rref.nullspace_from_rref(pivots).to_list()]


def _integer_roots_in_field(phi, d: sp.Symbol, tower: Tower):
    """Nonnegative integer roots of a polynomial in d with coefficients in
    Q(t)(theta), or None if phi is identically zero."""
    phi = sp.expand(sp.together(phi).as_numer_denom()[0])
    if tower.trivial is False:
        phi = _theta_reduction_table(phi, tower)
    gens = [d] + [s for s in (t, theta) if s in phi.free_symbols]
    p = sp.Poly(phi, *gens) if phi != 0 else None
    if p is None:
        return None
    # candidates: rational roots of the first nonzero pure-d coefficient slice
    slices: dict = {}
    for mon, c in zip(p.monoms(), p.coeffs()):
        key = mon[1:]
        slices.setdefault(key, sp.Integer(0))
        slices[key] += sp.sympify(c) * d ** mon[0]
    first = next(iter(slices.values()))
    roots = sp.Poly(first, d).ground_roots()
    out = []
    for r in roots:
        if r.is_Integer and r >= 0:
            if all(sp.expand(s.subs(d, r)) == 0 for s in slices.values()):
                out.append(int(r))
    return sorted(out)


def scalar_operators(M: sp.Matrix, m: int, tower: Tower):
    """For each coordinate i a scalar relation sum_j p_j(x) y(x + m*j) = 0
    satisfied by y = (i-th coordinate of any solution of sigma^m(Y)=MY),
    with polynomial p_j.  Built from the chain v_{k+1} = sigma^m(v_k) M."""
    n = M.shape[0]
    iszero = lambda e: treduce(e, tower) == 0
    ops = []
    for i in range(n):
        rows = [sp.eye(n)[i, :]]
        while True:
            V = sp.Matrix.vstack(*rows)
            null = V.T.nullspace(iszerofunc=iszero)
            cand = None
            for c in null:
                if not iszero(c[-1]):
                    cand = c
                    break
            if cand is not None:
                coeffs = [treduce(ci, tower) for ci in cand]
                den = sp.Integer(1)
                for ci in coeffs:
                    den = sp.lcm(den, sp.together(ci).as_numer_denom()[1])
                ops.append([sp.expand(sp.cancel(ci * den)) for ci in coeffs])
                break
            rows.append(mat_reduce(mat_shift(rows[-1], m) * M, tower))
    return ops


def _scalar_degree_candidates(pcoeffs, m: int, tower: Tower, rmax: int = 80):
    """Degree candidates for polynomial solutions of
    sum_j p_j(x) y(x+m*j) = 0 via the indicial analysis at x = infinity."""
    D = max(sp.degree(pj, x) if pj != 0 else -sp.oo for pj in pcoeffs)
    d = sp.Symbol("_d")
    a = []
    for pj in pcoeffs:
        pp = sp.Poly(pj, x) if pj != 0 else None
        a.append(pp)
    def coeff(i, u):
        # a_{i,u} = coefficient of x^(D-u) in p_i
        if a[i] is None:
            return sp.Integer(0)
        k = D - u
        if k < 0 or k > a[i].degree():
            return sp.Integer(0)
        return sp.sympify(a[i].coeff_monomial(x ** k))
    for r in range(rmax + 1):
        phi = sp.Integer(0)
        for i in range(len(pcoeffs)):
            for s in range(r + 1):
                c = coeff(i, r - s)
                if c != 0:
                    phi += c * sp.ff(d, s) / sp.factorial(s) * (m * i) ** s
        roots = _integer_roots_in_field(sp.expand(phi), d, tower)
        if roots is not None:
            return roots
    return None


def _degree_bound(M: sp.Matrix, m: int, tower: Tower, config: SolverConfig):
    """Top-degree analysis at x = infinity; -1 means only the zero solution."""
    n = M.shape[0]
    exp = infinity_expansion(M, 2, tower)
    H0, H1 = exp.coeffs
    iszero = lambda e: treduce(e, tower) == 0
    if exp.ord > 0:
        return -1
    if exp.ord == 0:
        K = (H0 - sp.eye(n)).nullspace(iszerofunc=iszero)
        if not K:
            return -1
        L = (H0 - sp.eye(n)).T.nullspace(iszerofunc=iszero)
        C = sp.Matrix.hstack(*K)
        LT = sp.Matrix.hstack(*L).T
        d = sp.Symbol("_d")
        p = treduce(sp.expand((LT * (H1 - m * d * sp.eye(n)) * C).det(
            method="berkowitz")), tower)
        roots = _integer_roots_in_field(p, d, tower)
        if roots is not None:
            return max(roots) if roots else -1
    elif not H0.nullspace(iszerofunc=iszero):
        return -1
    # fall back to scalar relations per coordinate (sound and complete:
    # every coordinate of a solution is annihilated by its chain operator)
    try:
        bounds = []
        for op in scalar_operators(M, m, tower):
            roots = _scalar_degree_candidates(op, m, tower)
            if roots is None:
                raise ValueError("indicial analysis failed")
            bounds.append(max(roots) if roots else -1)
        return max(bounds)
    except Exception:
        warnings.warn("degree bound inconclusive; using configured cap",
                      BoundExceededWarning)
        return config.degree_cap


def polynomial_solutions(M: sp.Matrix, m: int = 1, degree_bound: int = None,
                         tower: Tower = TRIVIAL_TOWER,
                         config: SolverConfig = DEFAULT_CONFIG):
    """All polynomial solution vectors of sigma^m(Y) = M Y with
    deg <= degree_bound (computed from the infinity expansion if omitted)."""
    n = M.shape[0]
    if degree_bound is None:
        degree_bound = _degree_bound(M, m, tower, config)
    if degree_bound < 0:
        return []
    e = tower.degree
    coeffs = sp.symbols(f"_c0:{n * (degree_bound + 1) * e}")
    def unk(i, dg, k):
        return coeffs[(i * (degree_bound + 1) + dg) * e + k]
    P = sp.Matrix([[sum(unk(i, dg, k) * theta**k * x**dg
                        for dg in range(degree_bound + 1)
                        for k in range(e))] for i in range(n)])
    # clear denominators of M row-wise
    equations = []
    MP = M * P
    for i in range(n):
        lhs = shift(P[i], m)
        num, _ = sp.together(lhs - MP[i]).as_numer_denom()
        equations.extend(_collect_equations(num, tower))
    null = _nullspace_over_Qt(equations, list(coeffs))
    sols = []
    for vec in null:
        sub = {coeffs[i]: vec[i] for i in range(len(coeffs))}
        V = P.subs(sub)
        V = V.applyfunc(lambda q: treduce(q, tower))
        if any(v != 0 for v in V):
            sols.append(V)
    return sols


# ---------------------------------------------------------------------------
# rational solutions

def _constant_span_reduce(vectors, tower: Tower):
    """Prune vectors that are tower-constant (x-free) combinations of
    earlier ones."""
    indep = []
    e = tower.degree
    s = sp.Symbol("_s")
    for V in vectors:
        if not indep:
            indep.append(V)
            continue
        lam = sp.symbols(f"_l0:{len(indep) * e}")
        combo = sp.zeros(*V.shape)
        for i, W in enumerate(indep):
            c = sum(lam[i * e + k] * theta**k for k in range(e))
            combo = combo + c * W
        # V is a combination iff the homogeneous system in (lam, s) for
        # s*V = combo has a solution with s != 0
        eqs = []
        for i in range(V.shape[0]):
            num, _ = sp.together(s * V[i] - combo[i]).as_numer_denom()
            eqs.extend(_collect_equations(num, tower))
        if not any(v[-1] != 0 for v in _nullspace_over_Qt(eqs, [*lam, s])):
            indep.append(V)
    return indep


def rational_solutions(M: sp.Matrix, m: int = 1, tower: Tower = TRIVIAL_TOWER,
                       config: SolverConfig = DEFAULT_CONFIG) -> RationalSolutionBasis:
    """Complete basis of rational solutions of sigma^m(Y) = M Y, each
    verified by substitution."""
    u = universal_denominator(M, m, tower, config)
    Mp = mat_reduce(sp.sympify(shift(u, m)) / u * M, tower)
    polys = polynomial_solutions(Mp, m, None, tower, config)
    basis = []
    for P in polys:
        V = (P / u).applyfunc(lambda q: treduce(q, tower))
        resid = mat_shift(V, m) - mat_reduce(M * V, tower)
        if not all(treduce(r, tower) == 0 for r in resid):
            raise VerificationError(
                "rational solution failed substitution check")
        basis.append(V)
    basis = _constant_span_reduce(basis, tower)
    return RationalSolutionBasis(m=m, basis=basis)


# ---------------------------------------------------------------------------
# gauge assembly

def _invertible_selection(columns, tower: Tower):
    """Pick one column per slot so the assembled matrix is invertible."""
    import itertools
    for choice in itertools.product(*columns):
        G = sp.Matrix.hstack(*choice)
        if treduce(G.det(method="berkowitz"), tower) != 0:
            return mat_reduce(G, tower)
    # try sums of basis vectors per slot as a fallback
    sums = [[sum(bs, sp.zeros(*bs[0].shape))] for bs in columns]
    G = sp.Matrix.hstack(*[s[0] for s in sums])
    if treduce(G.det(method="berkowitz"), tower) != 0:
        return mat_reduce(G, tower)
    return None


def gauge_from_ratios(A: sp.Matrix, ratios, m: int,
                      tower: Tower = TRIVIAL_TOWER,
                      config: SolverConfig = DEFAULT_CONFIG):
    """G with sigma^m(G) * diag(ratios) = A * G, assembled column-by-column
    from rational solutions of sigma^m(W) = (A/ratio_i) W; None on failure."""
    columns = []
    for r in ratios:
        Mi = mat_reduce(A * tinv(r, tower), tower)
        basis = rational_solutions(Mi, m, tower, config).basis
        if not basis:
            return None
        columns.append(basis)
    G = _invertible_selection(columns, tower)
    if G is None:
        return None
    lhs = mat_shift(G, m) * sp.diag(*ratios)
    rhs = A * G
    if not all(treduce(e, tower) == 0 for e in (lhs - rhs)):
        raise VerificationError("gauge postcondition violated")
    return G

