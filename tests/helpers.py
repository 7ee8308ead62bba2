"""Checks the tests share: matrix equality over a tower, standardness of a
rational function with respect to sigma^m, and reference implementations
that pin the results of the ones that replaced them."""

import functools
import itertools
from dataclasses import dataclass

import sympy as sp
from sympy import QQ
from sympy.polys.densearith import (dup_add, dup_mul, dup_mul_ground,
                                    dup_quo_ground)
from sympy.polys.densebasic import dup_degree, dup_strip
from sympy.polys.matrices import DomainMatrix

from ddsolve.difftools import dispersion
from ddsolve.fields import (QQ_T, QQ_XT, TRIVIAL_TOWER, AllEqual, Conjugate,
                            FieldError, MixedSplit, Split, Tower,
                            common_integer_roots,
                            dm_from_matrix, dm_to_matrix, element_expr,
                            factor_in_x, k_shift, kernel, make_tower,
                            series_at_infinity, t, theta, treduce, x)
from ddsolve.moser import infinity_expansion
from ddsolve.sequences import (LiouvilleSolution, Part, PointEvaluator,
                               PoleError, VerificationError)


# ---------------------------------------------------------------------------
# expression helpers: field arithmetic on sympy expressions in the
# canonical form of treduce

def teq(a, b, tower: Tower = TRIVIAL_TOWER) -> bool:
    return treduce(sp.sympify(a) - sp.sympify(b), tower) == 0


def tinv(f, tower: Tower = TRIVIAL_TOWER):
    return treduce(1 / sp.sympify(f), tower)


def shift(f, j: int = 1):
    """sigma^j: f(x) -> f(x+j)."""
    return sp.sympify(f).subs(x, x + j)


def delta(f, tower: Tower = TRIVIAL_TOWER):
    """d/dt with delta(x) = 0 and delta(theta) = tower.dtheta."""
    f = sp.sympify(f)
    df = sp.diff(f, t)
    if not tower.trivial:
        df = df + sp.diff(f, theta) * tower.dtheta
    return treduce(df, tower)


def mat_reduce(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> sp.Matrix:
    return M.applyfunc(lambda e: treduce(e, tower))


def solution(W: sp.Matrix, cert, tower: Tower = TRIVIAL_TOWER):
    """The Hypergeometric LiouvilleSolution W*h whose certificates are
    cert (a HypCert), given as sympy expressions over the tower."""
    r, c = (dm_from_matrix(sp.Matrix([e]), tower)
            for e in (cert.sigma_ratio, cert.delta_ratio))
    return LiouvilleSolution("Hypergeometric", Part(
        dm_from_matrix(W, tower), r, c, cert.sigma_step), tower)


def eigendata_expr(eig):
    """moser.leading_eigendata's classification with its contents as
    expressions in Y, the form of reference_leading_eigendata."""
    if isinstance(eig, Conjugate):
        return Conjugate(sp.Poly.from_list(
            [QQ_T.convert_from(c, QQ_XT) for c in eig.modulus],
            sp.Symbol("Y"), domain=QQ_T).as_expr())
    if isinstance(eig, AllEqual):
        return AllEqual(QQ_T.to_sympy(eig.root))
    if isinstance(eig, Split):
        return Split(tuple(QQ_T.to_sympy(r) for r in eig.roots))
    return eig


def mat_eq(A: sp.Matrix, B: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> bool:
    return A.shape == B.shape and mat_is_zero(A - B, tower)


def mat_is_zero(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> bool:
    return all(treduce(e, tower) == 0 for e in M)


def mat_shift(M: sp.Matrix, j: int = 1) -> sp.Matrix:
    """sigma^j on every entry of a matrix."""
    return M.applyfunc(lambda e: shift(e, j))


def mat_delta(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> sp.Matrix:
    """delta on every entry of a matrix over the tower."""
    return M.applyfunc(lambda e: delta(e, tower))


# ---------------------------------------------------------------------------
# reference tower: the sympy forms make_tower built before Tower held its
# K-form

def reference_tower_exprs(minpoly: sp.Expr) -> tuple:
    """(minpoly, dtheta) of make_tower(minpoly) as make_tower formed them:
    the Poly over Q(t) as an expression, and m_t(theta) / m'(theta)
    through treduce."""
    m = sp.Poly(sp.together(minpoly), theta,
                domain=sp.QQ.frac_field(t)).as_expr()
    tower = make_tower(minpoly)
    return m, treduce(-sp.diff(m, t) / sp.diff(m, theta), tower)


# ---------------------------------------------------------------------------
# reference Expr linear algebra: the null space, rank and coefficient
# equations the K-form solvers replaced, kept for the references below

def nullspace(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> list:
    """Basis of {v : M v = 0} over the tower, in the canonical form of
    treduce: the vectors Matrix.nullspace returns, in the same order (the
    basis of fields.kernel on the K-form, read back over the tower)."""
    N = dm_to_matrix(kernel(dm_from_matrix(M, tower)).transpose(), tower)
    return [N[:, j] for j in range(N.cols)]


def rank(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> int:
    """Rank of M over the tower."""
    _, pivots = dm_from_matrix(M, tower).rref()
    return len(pivots) // tower.degree


def theta_reduction_table(expr, tower: Tower):
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


def collect_equations(expr, tower: Tower, var: sp.Symbol = x):
    """Split a polynomial identity in var (and theta) into equations for
    its coefficients, linear in whatever unknown symbols appear."""
    expr = sp.expand(expr)
    expr = theta_reduction_table(expr, tower)
    if expr == 0:
        return []
    gens = (var, theta) if theta in expr.free_symbols else (var,)
    return [sp.sympify(c) for c in sp.Poly(expr, *gens).coeffs()]


def nullspace_over_Qt(equations, unknowns):
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


def is_standard(f, m: int) -> bool:
    """Is f in K standard with respect to sigma^m?"""
    return dispersion(QQ_XT.new(f.numer * f.denom)) < m


def reassemble(scd):
    """The element of K a ShiftClassDivisor describes."""
    out = scd.content
    for cls in scd.classes:
        for j, m in cls.entries:
            out *= k_shift(cls.base, j) ** m
    return out


# ---------------------------------------------------------------------------
# reference shift classes: the SymPy Expr implementations that
# difftools.shift_classes and the functions on top of it replaced, kept to
# pin their results (srepr of the canonical form included)

def reference_shift_equivalent(p, q, tower: Tower = TRIVIAL_TOWER):
    """j with q(x) = p(x+j) for p, q monic in x, or None: the candidate from
    the subleading coefficients, then the exact check."""
    pp, pq = sp.Poly(p, x), sp.Poly(q, x)
    d = pp.degree()
    if d != pq.degree():
        return None
    if d == 0:
        return 0 if treduce(p - q, tower) == 0 else None
    cp = pp.all_coeffs()[1] if len(pp.all_coeffs()) > 1 else 0
    cq = pq.all_coeffs()[1] if len(pq.all_coeffs()) > 1 else 0
    cand = sp.cancel((sp.sympify(cq) - sp.sympify(cp)) / d)
    if not cand.is_Integer:
        return None
    j = int(cand)
    if treduce(sp.expand(shift(p, j) - q), tower) == 0:
        return j
    return None


@dataclass
class ReferenceShiftClass:
    base: sp.Expr
    entries: list


@dataclass
class ReferenceDivisor:
    content: sp.Expr
    classes: list


def reference_shift_class_divisor(f) -> ReferenceDivisor:
    f = treduce(f)
    num, den = f.as_numer_denom()
    cn, fn = factor_in_x(num)
    cd, fd = factor_in_x(den)
    classes = []
    for fac, mult in [(p, m) for p, m in fn] + [(p, -m) for p, m in fd]:
        for cls in classes:
            j = reference_shift_equivalent(cls.base, fac)
            if j is not None:
                entries = dict(cls.entries)
                entries[j] = entries.get(j, 0) + mult
                cls.entries = list(entries.items())
                break
        else:
            classes.append(ReferenceShiftClass(fac, [(0, mult)]))
    out = []
    for cls in classes:
        entries = [(j, m) for j, m in cls.entries if m != 0]
        if entries:
            jmin = min(j for j, _ in entries)
            out.append(ReferenceShiftClass(
                sp.expand(shift(cls.base, jmin)),
                sorted((j - jmin, m) for j, m in entries)))
    return ReferenceDivisor(treduce(cn / cd), out)


def reference_dispersion(P) -> int:
    return max([max(j for j, _ in cls.entries)
                for cls in reference_shift_class_divisor(P).classes],
               default=0)


def reference_standard_decompose(f, m: int):
    """(g, standard part) in the canonical form of treduce."""
    scd = reference_shift_class_divisor(f)
    g, standard = sp.Integer(1), scd.content
    for cls in scd.classes:
        window: dict = {}
        for k, e in cls.entries:
            r, s = k % m, k // m
            if s:
                g = g * sp.prod([shift(cls.base, r + i * m)
                                 for i in range(s)]) ** e
            window[r] = window.get(r, 0) + e
        for r, e in sorted(window.items()):
            standard = standard * shift(cls.base, r) ** e
    return treduce(g), treduce(standard)


def reference_split_alpha_beta_power(a, n: int):
    """(alpha, beta), alpha from sp.cancel, or None."""
    scd = reference_shift_class_divisor(a)
    alpha = sp.Integer(1)
    for cls in scd.classes:
        for j, e in cls.entries:
            if e % n != 0:
                return None
            fac = sp.expand(shift(cls.base, j))
            if fac.free_symbols - {x}:
                return None
            alpha = alpha * fac ** (e // n)
    beta = treduce(scd.content)
    if beta.free_symbols - {t}:
        return None
    return sp.cancel(alpha), beta


def reference_leading_beta(detA, n: int):
    _, (c0,) = series_at_infinity(detA, 1)
    return treduce((-1) ** (n - 1) * c0)


def ord_and_moser(M: sp.Matrix):
    """(ord_oo(M), first Moser order m(M), H0) of a nonzero matrix."""
    exp = infinity_expansion(M, 1)
    H0 = exp.coeffs[0]
    return exp.ord, sp.Rational(-exp.ord) + sp.Rational(rank(H0), M.rows), H0


# ---------------------------------------------------------------------------
# reference Hyper: the SymPy Expr implementation closedform.petkovsek
# replaced, kept to pin the ordered ratio list (srepr included)

def reference_petkovsek(pcoeffs, m: int = 1):
    """All ratios of hypergeometric solutions of
    sum_i p_i(x) y(x + m*i) = 0, by Expr products, expand, degree and LC
    on every divisor pair, and sp.roots for the leading constant."""

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
    cs = sp.symbols(f"_k0:{degree_bound + 1}")
    C = sum(cs[j] * x**j for j in range(degree_bound + 1))
    expr = sp.expand(sum(Q[i] * C.subs(x, x + m * i) for i in range(len(Q))))
    if expr == 0:
        vec = [1] * len(cs)
    else:
        null = nullspace_over_Qt(sp.Poly(expr, x).coeffs(), list(cs))
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


# ---------------------------------------------------------------------------
# reference ratsol: the SymPy Expr implementations of universal_denominator,
# polynomial_solutions and scalar_operators that the K-matrix ones
# replaced, kept to pin their results (srepr included)

def reference_universal_denominator(M, m=1, tower=TRIVIAL_TOWER):
    """Universal denominator from together/lcm on the treduced entries of M
    and M^-1, returned expanded."""
    from ddsolve.fields import mat_inv

    facs = []
    for which, N in enumerate((M, mat_inv(M, tower))):
        dens = [d for d in (sp.together(treduce(e, tower)).as_numer_denom()[1]
                            for e in N) if x in d.free_symbols]
        if not dens:
            continue
        lcm = dens[0]
        for d in dens[1:]:
            lcm = sp.lcm(lcm, d)
        facs += [(f, mu, which)
                 for f, mu in factor_in_x(sp.expand(lcm), tower)[1]]
    classes = []
    for fac, mult, which in facs:
        for entry in classes:
            j = reference_shift_equivalent(entry[0], fac, tower)
            if j is not None:
                entry[1 + which][j] = entry[1 + which].get(j, 0) + mult
                break
        else:
            entry = [fac, {}, {}]
            entry[1 + which][0] = mult
            classes.append(entry)
    u = sp.Integer(1)
    for base, SA, SB in classes:
        for rho in {a % m for a in SA} & {b % m for b in SB}:
            As = {a: mu for a, mu in SA.items() if a % m == rho}
            Bs = {b: mu for b, mu in SB.items() if b % m == rho}
            for k in range(min(Bs), max(As) - m + 1, m):
                mult = min(sum(mu for a, mu in As.items() if a >= k + m),
                           sum(mu for b, mu in Bs.items() if b <= k))
                if mult > 0:
                    u = u * shift(base, k) ** mult
    return sp.expand(u)


def reference_scalar_operators(M, m, tower):
    """Chain operators from nullspace on sp.Matrix rows, normalized by the
    lcm of the together-denominators."""

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


def reference_common_integer_roots(slices: list) -> list:
    """The integer roots common to the dense polynomials over Q in
    `slices`, as :func:`ddsolve.fields.common_integer_roots` found them by
    factoring: the candidates are the rational roots of the linear factors
    of the first slice over Q (Zassenhaus)."""
    from sympy import QQ
    from sympy.polys.densetools import dup_eval
    from sympy.polys.factortools import dup_factor_list

    _, factors = dup_factor_list(slices[0], QQ)
    cands = [-f[1] / f[0] for f, _ in factors if len(f) == 2]
    return sorted(int(r) for r in cands if r.denominator == 1
                  and all(not dup_eval(s, r, QQ) for s in slices))


def integer_roots(p, var=x, tower=TRIVIAL_TOWER):
    """Sorted integer roots in var of the numerator of p, whose
    coefficients may involve t and theta; None when p is zero.

    theta is reduced by the minimal polynomial first.  r counts only if
    every (t, theta)-monomial slice of the numerator vanishes at var = r
    (see :func:`ddsolve.fields.common_integer_roots`)."""
    from sympy import QQ
    from sympy.polys.densebasic import dup_from_raw_dict

    from ddsolve.fields import common_integer_roots

    p = theta_reduction_table(sp.expand(p), tower)
    num = sp.expand(sp.together(p).as_numer_denom()[0])
    if num == 0:
        return None
    gens = sorted(num.free_symbols - {var}, key=str)
    slices: dict = {}
    for (k, *mono), c in sp.Poly(num, var, *gens,
                                 domain=QQ).as_dict(native=True).items():
        slices.setdefault(tuple(mono), {})[k] = c
    return common_integer_roots([dup_from_raw_dict(s, QQ)
                                 for s in slices.values()])


def reference_degree_bound(M, m, tower):
    """Degree bound from the Expr infinity expansion, a Berkowitz det with
    a free symbol, and the reference scalar operators."""
    from ddsolve.ratsol import UnsupportedCase

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
    bounds = []
    for op in reference_scalar_operators(M, m, tower):
        roots = _reference_scalar_degree_candidates(op, m)
        if roots is None:
            raise UnsupportedCase("no indicial equation")
        bounds.append(max([-1] + roots))
    return max(bounds)


def reference_degree_bound_det(Ps: list, c: int, s: int) -> int:
    """ratsol.degree_bound with an exact determinant of every leading
    matrix over Z[k, consts], and the integer roots of that determinant:
    the bound as it was decided before the rank test at a point."""
    from ddsolve.fields import x_integer_roots
    from ddsolve.ratsol import _combined_row, _k_domain, _operator_rows

    kdom = _k_domain(Ps[0].domain.symbols[1:])
    rows = _operator_rows(Ps, c, s, kdom)
    while True:
        order = sorted(range(len(rows)), key=lambda r: (
            rows[r][0], sum(len(e) for e in rows[r][1](0))))
        lead = DomainMatrix([rows[r][1](0) for r in order], Ps[0].shape,
                            kdom)
        if det := lead.det():
            return max([-1] + [d for d in x_integer_roots(det) if d >= 0])
        old = [rows[r] for r in order]
        for v in lead.transpose().nullspace().to_list():
            g = functools.reduce(lambda a, b: a.gcd(b), v)
            rows[order[max(i for i, a in enumerate(v) if a)]] = \
                _combined_row([a.exquo(g) for a in v], old)


def _reference_scalar_degree_candidates(pcoeffs, m):
    """Degree candidates of sum_j p_j(x) y(x+m*j) = 0, the p_j read from
    expressions as polynomials in x over Q[t, theta]."""
    ring = QQ[t, theta][x]
    return reference_indicial_degrees([ring.ring.from_expr(p).to_dense()
                                       for p in pcoeffs], m, ring.domain)


def _reference_slices(p: list, K) -> list:
    """The nonzero coordinate polynomials over Q of a polynomial over K:
    K is QQ, a number field QQ(z) (coordinates in its power basis) or a
    polynomial ring over QQ (the coefficients of its monomials)."""
    if K == QQ:
        return [p]
    if K.is_PolynomialRing:
        monoms = sorted({mon for c in p for mon in c})
        return [dup_strip([c.get(mon, QQ.zero) for c in p]) for mon in monoms]
    deg = K.mod.degree()
    coords = [[QQ.zero] * (deg - len(c.to_list())) + c.to_list() for c in p]
    return [s for s in (dup_strip([c[j] for c in coords])
                        for j in range(deg)) if s]


def reference_indicial_degrees(Q: list, m: int, K, rmax: int = 80):
    """Degree candidates for polynomial solutions of
    sum_i Q_i(x) C(x + m*i) = 0, the Q_i dense in x over K (see
    :func:`_reference_slices`): the nonnegative integer roots of the
    first nonzero indicial polynomial at x = infinity, None when there is
    none up to order rmax.  The degree bound Hyper used before its
    C-equation went through ``ratsol.degree_bound``."""
    D = max(dup_degree(q) for q in Q)
    binom = [[K.one]]          # binomial(d, s) as a polynomial in d
    for r in range(rmax + 1):
        if r:
            binom.append(dup_quo_ground(
                dup_mul(binom[-1], [K.one, K(-(r - 1))], K), K(r), K))
        phi = []
        for i, q in enumerate(Q):
            for s in range(r + 1):
                e = dup_degree(q) - (D - r + s)   # index of x^(D-r+s)
                if 0 <= e < len(q) and q[e] and (i or not s):
                    phi = dup_add(phi, dup_mul_ground(
                        binom[s], q[e] * K((m * i) ** s), K), K)
        if phi:
            return [d for d in common_integer_roots(_reference_slices(phi, K))
                    if d >= 0]
    return None


def reference_polynomial_solutions(M, m=1, degree_bound=None,
                                   tower=TRIVIAL_TOWER):
    """Polynomial solutions from an Expr ansatz with n*(deg+1)*e unknown
    symbols, together/as_numer_denom per row and coefficient collection."""
    n = M.shape[0]
    if degree_bound is None:
        degree_bound = reference_degree_bound(M, m, tower)
    if degree_bound < 0:
        return []
    e = tower.degree
    coeffs = sp.symbols(f"_c0:{n * (degree_bound + 1) * e}")

    def unk(i, dg, k):
        return coeffs[(i * (degree_bound + 1) + dg) * e + k]

    P = sp.Matrix([[sum(unk(i, dg, k) * theta**k * x**dg
                        for dg in range(degree_bound + 1)
                        for k in range(e))] for i in range(n)])
    equations = []
    MP = M * P
    for i in range(n):
        num, _ = sp.together(shift(P[i], m) - MP[i]).as_numer_denom()
        equations.extend(collect_equations(num, tower))
    sols = []
    for vec in nullspace_over_Qt(equations, list(coeffs)):
        V = P.subs({coeffs[i]: vec[i] for i in range(len(coeffs))})
        V = V.applyfunc(lambda q: treduce(q, tower))
        if any(v != 0 for v in V):
            sols.append(V)
    return sols


def reference_rational_solutions(M, m=1, tower=TRIVIAL_TOWER):
    """Rational solution basis from the reference universal denominator,
    the reference polynomial solutions and an Expr ansatz for the
    constant-span test."""

    u = reference_universal_denominator(M, m, tower)
    Mp = mat_reduce(sp.sympify(shift(u, m)) / u * M, tower)
    vectors = [(P / u).applyfunc(lambda q: treduce(q, tower))
               for P in reference_polynomial_solutions(Mp, m, None, tower)]
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
            combo = combo + sum(lam[i * e + k] * theta**k
                                for k in range(e)) * W
        eqs = []
        for i in range(V.shape[0]):
            num, _ = sp.together(s * V[i] - combo[i]).as_numer_denom()
            eqs.extend(collect_equations(num, tower))
        if not any(v[-1] != 0 for v in nullspace_over_Qt(eqs, [*lam, s])):
            indep.append(V)
    return indep


# ---------------------------------------------------------------------------
# reference lift: the Expr compile (cancel, together, Poly) and the lift over
# Q(t) with FracElement arithmetic and LU solves that the K-form compile and
# the fraction-free lift replaced, with the section-sum construction that the
# lift's exact check replaced, kept to pin W(j) and the verdict

class ReferencePointEvaluator:
    """Entries cancelled into dense (num, den) polynomials in x with tower
    coefficients over Q[t], evaluated by Horner's rule and divided in the
    tower over Q(t)."""

    def __init__(self, tower: Tower = TRIVIAL_TOWER):
        from sympy import QQ

        from ddsolve.fields import t, theta

        self.K = QQ.frac_field(t)
        self.R = self.K.get_ring()
        self.degree = tower.degree
        self.mod = None
        if not tower.trivial:
            self.mod = sp.Poly(tower.minpoly, theta,
                               domain=self.K).rep.to_list()

    def reduce(self, a):
        from sympy.polys.densearith import dup_rem
        return a if self.mod is None else dup_rem(a, self.mod, self.K)

    def mul(self, a, b):
        from sympy.polys.densearith import dup_mul
        return self.reduce(dup_mul(a, b, self.K))

    def inv(self, a):
        from sympy.polys.euclidtools import dup_invert
        if self.mod is None:
            return [self.K.quo(self.K.one, a[0])]
        return dup_invert(a, self.mod, self.K)

    def matvec(self, M, v):
        from sympy.polys.densearith import dup_add, dup_mul
        n, K = len(v), self.K
        out = []
        for i in range(0, len(M), n):
            acc = []
            for a, b in zip(M[i:i + n], v):
                acc = dup_add(acc, dup_mul(a, b, K), K)
            out.append(self.reduce(acc))
        return out

    def solve(self, M, b):
        from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

        from ddsolve.fields import FieldError, from_regular
        n = len(b)
        R = reference_regular_matrix(M, (n, n), self.mod, self.K)
        try:
            sol = R.lu_solve(reference_regular_matrix(b, (n, 1), self.mod,
                                                      self.K))
        except DMNonInvertibleMatrixError:
            raise FieldError("matrix not invertible")
        return from_regular(sol, self.degree)

    def to_sympy(self, a):
        from ddsolve.fields import theta
        return sp.Add(*(self.K.to_sympy(c) * theta**k
                        for k, c in enumerate(reversed(a))))

    def compile(self, M):
        import itertools

        out = []
        for e in M:
            num, den = (self._xpoly(p)
                        for p in sp.fraction(sp.together(sp.cancel(e))))
            R, L = self.R, self.R.one
            for c in itertools.chain(*num, *den):
                L = R.lcm(L, c.denom)
            num, den = ([[c.numer * R.exquo(L, c.denom) for c in a]
                         for a in p] for p in (num, den))
            out.append((num, den))
        return out

    def _xpoly(self, p):
        from sympy.polys.densebasic import dup_strip

        from ddsolve.fields import theta, x
        coeffs = sp.Poly(p, x, theta, domain=self.K).rep.to_list()
        return dup_strip([self.reduce(c) for c in coeffs])

    def at(self, compiled, j):
        from sympy.polys.densearith import dup_add, dup_mul_ground

        from ddsolve.sequences import PoleError
        R, jj = self.R, self.R(j)

        def horner(p):
            acc = []
            for c in p:
                acc = dup_add(dup_mul_ground(acc, jj, R), c, R)
            return [self.K.convert_from(c, R) for c in acc]

        out = []
        for num, den in compiled:
            d = horner(den)
            if not d:
                raise PoleError("denominator vanishes", j)
            nv = horner(num)
            out.append(self.mul(nv, self.inv(d)) if nv else [])
        return out


def reference_lift(V, ratio, d: int, A, N: int, tower: Tower = TRIVIAL_TOWER,
                   check_terms: int = 30) -> list:
    """W(N), ..., W(N + check_terms - 1) of the lift of V*h, by the
    recurrence and cross-checked against the section-sum construction
    U = V_0 + ... + V_{d-1}, V_i(j) = A(j)^-1 V_{i-1}(j+1), by LU solves
    over Q(t); V_0 lives on the class j = N mod d, so U(j) = V_i(j) for
    i = (N - j) mod d.  VerificationError where the two disagree."""
    from ddsolve.fields import x
    from ddsolve.sequences import VerificationError

    pts = ReferencePointEvaluator(tower)
    Ac = pts.compile(A)
    steps: dict = {}

    def A_at(j):
        if j not in steps:
            steps[j] = pts.at(Ac, j)
        return steps[j]

    Ws = [pts.at(pts.compile(V.subs(x, N)), N)]
    while len(Ws) < check_terms:
        Ws.append(pts.matvec(A_at(N + len(Ws) - 1), Ws[-1]))
    Vc, rc = pts.compile(V), pts.compile([ratio])
    hs = [[pts.K.one]]
    comps: dict = {}

    def comp(i, j):
        if (i, j) not in comps:
            if i == 0:
                s = (j - N) // d
                while len(hs) <= s:
                    (r,) = pts.at(rc, N + d * (len(hs) - 1))
                    hs.append(pts.mul(hs[-1], r))
                comps[i, j] = [pts.mul(v, hs[s]) for v in pts.at(Vc, j)]
            else:
                comps[i, j] = pts.solve(A_at(j), comp(i - 1, j + 1))
        return comps[i, j]

    if d > 1:
        for j in range(N, N + check_terms):
            if comp((N - j) % d, j) != Ws[j - N]:
                raise VerificationError(
                    f"lift cross-check failed at index {j}: recurrence and "
                    "section-sum constructions disagree")
    return [sp.Matrix([pts.to_sympy(a) for a in w]) for w in Ws]


# ---------------------------------------------------------------------------
# reference tower products: theta^k * a, a'(theta) delta(theta), a(conj) and
# a * b reduced by dup_rem over the coefficient field, the forms that the
# tower's theta-power table (Tower.reduce) replaced

def reference_regular_matrix(entries: list, shape: tuple, mod, K):
    """The regular representation over K[theta]/(mod), each entry *
    theta^k reduced by dup_rem (mod None: over K itself)."""
    from sympy.polys.densearith import dup_lshift, dup_rem

    from ddsolve.fields import regular_rows
    deg = 1 if mod is None else len(mod) - 1

    def times_theta(a, k):
        return dup_rem(dup_lshift(a, k, K), mod, K) if k else a

    rows = regular_rows(entries, shape, deg, times_theta, K.zero)
    return DomainMatrix(rows, (shape[0] * deg, shape[1] * deg), K)


def reference_tower_mul(a: list, b: list, tower: Tower) -> list:
    from sympy.polys.densearith import dup_mul, dup_rem
    return dup_rem(dup_mul(a, b, QQ_XT), list(tower.modulus), QQ_XT)


def _reference_entrywise(D, tower: Tower, fn):
    from ddsolve.fields import from_regular
    deg, mod = tower.degree, list(tower.modulus)
    return reference_regular_matrix(
        [fn(a, mod) for a in from_regular(D, deg)],
        (D.shape[0] // deg, D.shape[1] // deg), mod, QQ_XT)


def reference_dm_delta(D, tower: Tower):
    """delta on a K-form over a nontrivial tower."""
    from sympy.polys.densearith import dup_add, dup_mul, dup_rem
    from sympy.polys.densebasic import dup_strip
    from sympy.polys.densetools import dup_diff
    dtheta, T = list(tower.delta_theta), QQ_XT.gens[1]
    return _reference_entrywise(D, tower, lambda a, mod: dup_add(
        dup_strip([c.diff(T) for c in a]), dup_rem(dup_mul(
            dup_diff(a, 1, QQ_XT), dtheta, QQ_XT), mod, QQ_XT), QQ_XT))


def reference_dm_conjugate(D, conj: list, tower: Tower):
    """theta -> conj on every entry of a K-form over a tower."""
    from sympy.polys.densearith import dup_rem
    from sympy.polys.densetools import dup_compose
    return _reference_entrywise(D, tower, lambda a, mod: dup_rem(
        dup_compose(a, conj, QQ_XT), mod, QQ_XT))


# ---------------------------------------------------------------------------
# reference numeric window: the evaluator at a rational t0 over Q, and the
# check of the minimal polynomial made monic there, that the ones over Z
# replaced

class ReferenceQQPointEvaluator(PointEvaluator):
    """PointEvaluator at t0 over R = Q: every compiled polynomial is
    specialized at t0 in Q.  Products and Horner evaluation are the shared
    ones."""

    def __init__(self, t0=None):
        self.t0, self.R, self.K = QQ.from_sympy(t0), QQ, QQ

    def dense_in_x(self, polys: list) -> list:
        from sympy.polys.densebasic import dup_from_raw_dict
        out = []
        for p in polys:
            coeffs: dict = {}
            for (i, k), c in p.terms():
                coeffs[i] = coeffs.get(i, QQ.zero) + c * self.t0**k
            out.append(dup_from_raw_dict(coeffs, QQ))
        return out


def reference_tower_fault(tower: Tower, t0):
    """Why the tower does not specialize at t = t0, by its minimal
    polynomial specialized in Q and divided by its leading coefficient
    there; None when it does."""
    from sympy.polys.factortools import dup_irreducible_p
    if tower.trivial:
        return None
    pts = ReferenceQQPointEvaluator(t0)
    m = DomainMatrix([list(tower.modulus)], (1, tower.degree + 1), QQ_XT)
    try:
        mod, _ = pts.at(pts.compile(m), 0)
    except PoleError:
        return f"minimal polynomial has a pole at t = {t0}"
    if not dup_irreducible_p([c / mod[0] for c in mod], QQ):
        return f"minimal polynomial is reducible at t = {t0}"
    return None


# ---------------------------------------------------------------------------
# reference gauge delta-part and certificate check: the Expr products,
# treduce on every entry, that the K-form ones in procedures and sequences
# replaced

def reference_gauge_delta_part(G, B, tower=TRIVIAL_TOWER):
    """B-bar = G^{-1} B G - G^{-1} delta(G)."""
    from ddsolve.fields import mat_inv

    Ginv = mat_inv(G, tower)
    return mat_reduce(Ginv * B * G - Ginv * mat_delta(G, tower), tower)


def reference_check_pair(A, B, W, cert, tower, label):
    """Failures of sigma^m(W) r = A_m W and delta(W) + c W = B W."""
    from ddsolve.fields import sigma_power_matrix

    failures = []
    m = cert.sigma_step
    Am = sigma_power_matrix(A, m)
    lhs = mat_shift(W, m) * cert.sigma_ratio - Am * W
    if not all(treduce(e, tower) == 0 for e in lhs):
        failures.append(f"{label}: sigma identity sigma^{m}(W)*r = A_{m}*W")
    lhs = mat_delta(W, tower) + cert.delta_ratio * W - B * W
    if not all(treduce(e, tower) == 0 for e in lhs):
        failures.append(f"{label}: delta identity delta(W) + c*W = B*W")
    return failures


# ---------------------------------------------------------------------------
# reference delta-side: the SymPy Expr implementations that
# closedform.hyperexp_solutions and moser.leading_eigendata replaced, kept
# to pin their results (srepr included).  reference_hyperexp_solutions is
# the replaced code with one change: it keeps every verified V, where the
# replaced code kept one V per certificate.

@dataclass
class ReferenceHyperexpCandidate:
    V: sp.Matrix
    certificate: sp.Expr
    tower: Tower = TRIVIAL_TOWER


def _reference_is_diagonal(B):
    n = B.shape[0]
    return all(sp.cancel(B[i, j]) == 0 for i in range(n) for j in range(n)
               if i != j)


def _reference_eigen_candidates(C: sp.Matrix, allow_tower=True):
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
            pairs.extend((element_expr(conj), tower)
                         for conj in tower.conjugates())
    return [(lam, v, tower) for lam, tower in pairs
            for v in nullspace(C - lam * sp.eye(C.shape[0]), tower)]


def _reference_diff_rational_solutions(C: sp.Matrix):
    """Rational solutions of delta(V) = C V for C over Q(t) with at most
    simple finite poles; an Expr ansatz with _v0: symbols."""
    from ddsolve.ratsol import UnsupportedCase

    n = C.shape[0]
    dens = sp.Integer(1)
    for e in C:
        dens = sp.lcm(dens, sp.together(sp.cancel(e)).as_numer_denom()[1])
    _, facs = sp.factor_list(sp.expand(dens), t)
    denom = sp.Integer(1)
    for fac, mult in [(f, m_) for f, m_ in facs if t in f.free_symbols]:
        if mult > 1 or sp.degree(fac, t) != 1:
            raise UnsupportedCase("finite pole not simple and rational")
        a = sp.cancel(-fac.subs(t, 0) / sp.LC(fac, t))
        R = ((t - a) * C).applyfunc(
            lambda e: sp.cancel(sp.cancel(e).subs(t, a)))
        eigs = [lam for lam, _v, tw
                in _reference_eigen_candidates(R, allow_tower=False)
                if lam.is_Integer]
        dk = max([0] + [-int(l) for l in eigs if l < 0])
        denom = denom * (t - a) ** dk
    Cinf = (t * C).applyfunc(lambda e: sp.limit(sp.cancel(e), t, sp.oo))
    if any(v.has(sp.oo, -sp.oo, sp.zoo) for v in Cinf):
        degbound = sp.degree(sp.expand(denom), t) + n + 4
    else:
        eigs = [lam for lam, _v, tw
                in _reference_eigen_candidates(Cinf, allow_tower=False)
                if lam.is_Integer]
        degbound = max([0] + [int(l) for l in eigs if l > 0]) + sp.degree(
            sp.expand(denom), t)
    cs = sp.symbols(f"_v0:{n * (degbound + 1)}")
    V = sp.Matrix([[sum(cs[i * (degbound + 1) + dg] * t**dg
                        for dg in range(degbound + 1))] for i in range(n)])
    dden = sp.diff(denom, t)
    # delta(V/denom) = C V/denom  =>  delta(V) - (dden/denom) V = C V
    expr = (V.applyfunc(lambda e: sp.diff(e, t)) - (dden / denom) * V
            - C * V)
    eqs = []
    for i in range(n):
        num, _ = sp.together(expr[i]).as_numer_denom()
        eqs.extend(collect_equations(num, TRIVIAL_TOWER, t))
    sols = []
    for vec in nullspace_over_Qt(eqs, list(cs)):
        sub = {cs[i]: vec[i] for i in range(len(cs))}
        Vv = (V.subs(sub) / denom).applyfunc(treduce)
        if any(v != 0 for v in Vv):
            sols.append(Vv)
    return sols


def reference_hyperexp_solutions(Bhat: sp.Matrix):
    """Hyperexponential solution candidates of delta(Y) = Bhat * Y over
    Q(t): diagonal, constant and simple-pole Bhat; UnsupportedCase
    otherwise."""
    from ddsolve.ratsol import UnsupportedCase

    n = Bhat.shape[0]
    B = Bhat.applyfunc(sp.cancel)
    if x in B.free_symbols or theta in B.free_symbols:
        raise UnsupportedCase("matrix must be over Q(t)")
    if _reference_is_diagonal(B):
        out = []
        for i in range(n):
            e = sp.zeros(n, 1)
            e[i] = 1
            out.append(ReferenceHyperexpCandidate(
                V=e, certificate=sp.cancel(B[i, i])))
        return out
    if t not in B.free_symbols:
        out = []
        for lam, v, tw in _reference_eigen_candidates(B):
            out.append(ReferenceHyperexpCandidate(V=v, certificate=lam,
                                                  tower=tw))
        if not out:
            raise UnsupportedCase(
                "no eigenvalues within Q(t) or one extension")
        return out
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
        R = ((t - a) * B).applyfunc(
            lambda e: sp.cancel(sp.cancel(e).subs(t, a)))
        lams = sorted({lam for lam, _v, tw
                       in _reference_eigen_candidates(R, allow_tower=False)
                       if not lam.free_symbols},
                      key=sp.default_sort_key)
        # the first exponent of each class modulo the integers
        lams = [lam for k, lam in enumerate(lams)
                if all(not (lam - mu).is_integer for mu in lams[:k])]
        cand_parts.append([(a, lam) for lam in lams])
    mus = sorted({lam for lam, _v, tw
                  in _reference_eigen_candidates(Binf, allow_tower=False)
                  if not lam.free_symbols}, key=sp.default_sort_key)
    for picks in itertools.product(*cand_parts):
        for mu in mus:
            c = sp.cancel(mu + sum(lam / (t - a) for a, lam in picks))
            for V in _reference_diff_rational_solutions(B - c * sp.eye(n)):
                resid = (V.applyfunc(lambda e: sp.diff(e, t)) + c * V
                         - B * V)
                if all(sp.cancel(r) == 0 for r in resid):
                    out.append(ReferenceHyperexpCandidate(V=V,
                                                          certificate=c))
    return out


def reference_leading_eigendata(H0: sp.Matrix, n: int):
    """Classification of the eigenvalue multiset of H0 over Q(t): the Expr
    charpoly, cancelled and factored over Q(t)."""
    Y = sp.Symbol("Y")
    Pp = sp.Poly(sp.cancel(sp.together(H0.charpoly(Y).as_expr())), Y,
                 domain=sp.QQ.frac_field(t))
    if Pp.degree() != n:
        raise FieldError("degree mismatch in roots_over_coeff_field")
    _, raw = Pp.factor_list()
    if len(raw) == 1 and raw[0][0].degree() == n and raw[0][1] == 1 \
            and n > 1:
        return Conjugate(raw[0][0].monic().as_expr())
    if all(fac.degree() == 1 for fac, _ in raw):
        roots = []
        dom = Pp.domain
        for fac, mult in raw:
            _, b = fac.monic().all_coeffs()
            r = sp.cancel(-dom.to_sympy(b))
            roots.extend([r] * mult)
        if all(sp.cancel(r - roots[0]) == 0 for r in roots):
            return AllEqual(roots[0])
        return Split(tuple(roots))
    return MixedSplit(tuple((fac.monic().as_expr(), mult)
                            for fac, mult in raw))
