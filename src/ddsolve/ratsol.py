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

import itertools
from dataclasses import dataclass

import sympy as sp
from sympy.polys.matrices import DomainMatrix

from .fields import (TRIVIAL_TOWER, FieldError, Tower, _theta_reduction_table,
                     factor_in_x, integer_roots, kernel, mat_inv, mat_reduce,
                     mat_shift, nullspace, rank, shift, theta, tinv, treduce,
                     x)
from .difftools import shift_equivalent
from .moser import infinity_expansion
from .sequences import VerificationError

__all__ = ["RationalSolutionBasis", "UnsupportedCase",
           "universal_denominator", "polynomial_solutions",
           "rational_solutions", "gauge_from_ratios"]


class UnsupportedCase(Exception):
    """Outside the documented desk-scale scope of a subroutine."""


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
                          tower: Tower = TRIVIAL_TOWER):
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
                    u = u * shift(base, k) ** mult
    return sp.expand(u)


# ---------------------------------------------------------------------------
# polynomial solutions

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


def scalar_operators(M: sp.Matrix, m: int, tower: Tower):
    """For each coordinate i a scalar relation sum_j p_j(x) y(x + m*j) = 0
    satisfied by y = (i-th coordinate of any solution of sigma^m(Y)=MY),
    with polynomial p_j.  Built from the chain v_{k+1} = sigma^m(v_k) M."""
    n = M.shape[0]
    ops = []
    for i in range(n):
        rows = [sp.eye(n)[i, :]]
        while True:
            null = nullspace(sp.Matrix.vstack(*rows).T, tower)
            cand = next((c for c in null if c[-1] != 0), None)
            if cand is not None:
                den = sp.Integer(1)
                for ci in cand:
                    den = sp.lcm(den, sp.together(ci).as_numer_denom()[1])
                ops.append([sp.expand(sp.cancel(ci * den)) for ci in cand])
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
        roots = integer_roots(phi, d, tower)
        if roots is not None:
            return [r for r in roots if r >= 0]
    return None


def _degree_bound(M: sp.Matrix, m: int, tower: Tower):
    """Top-degree analysis at x = infinity; -1 means only the zero solution.
    UnsupportedCase when the indicial analysis finds no bound."""
    n = M.shape[0]
    exp = infinity_expansion(M, 2, tower)
    H0, H1 = exp.coeffs
    if exp.ord > 0:
        return -1
    if exp.ord == 0:
        right = nullspace(H0 - sp.eye(n), tower)
        if not right:
            return -1
        left = nullspace((H0 - sp.eye(n)).T, tower)
        C = sp.Matrix.hstack(*right)
        LT = sp.Matrix.hstack(*left).T
        d = sp.Symbol("_d")
        roots = integer_roots((LT * (H1 - m * d * sp.eye(n)) * C).det(
            method="berkowitz"), d, tower)
        if roots is not None:
            return max([-1] + roots)
    elif rank(H0, tower) == n:
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
    deg <= degree_bound (computed from the infinity expansion if omitted)."""
    n = M.shape[0]
    if degree_bound is None:
        degree_bound = _degree_bound(M, m, tower)
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


def rational_solutions(M: sp.Matrix, m: int = 1,
                       tower: Tower = TRIVIAL_TOWER) -> RationalSolutionBasis:
    """Complete basis of rational solutions of sigma^m(Y) = M Y, each
    verified by substitution."""
    u = universal_denominator(M, m, tower)
    Mp = mat_reduce(sp.sympify(shift(u, m)) / u * M, tower)
    polys = polynomial_solutions(Mp, m, None, tower)
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
    for choice in itertools.product(*columns):
        G = sp.Matrix.hstack(*choice)
        if rank(G, tower) == len(columns):
            return mat_reduce(G, tower)
    # try sums of basis vectors per slot as a fallback
    G = sp.Matrix.hstack(*[sum(bs, sp.zeros(*bs[0].shape)) for bs in columns])
    if rank(G, tower) == len(columns):
        return mat_reduce(G, tower)
    return None


def gauge_from_ratios(A: sp.Matrix, ratios, m: int,
                      tower: Tower = TRIVIAL_TOWER):
    """G with sigma^m(G) * diag(ratios) = A * G, assembled column-by-column
    from rational solutions of sigma^m(W) = (A/ratio_i) W; None on failure."""
    columns = []
    for r in ratios:
        Mi = mat_reduce(A * tinv(r, tower), tower)
        basis = rational_solutions(Mi, m, tower).basis
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

