"""Exact arithmetic for the coefficient tower Q < Q(t) < Q(t)[theta]/(m(theta)).

Field elements cross the API as sympy expressions in the global symbols x,
t, theta.  A :class:`Tower` carries the minimal polynomial of theta over
Q(t) (or None for the trivial tower) together with delta(theta), obtained
by implicit differentiation.  Canonical forms are produced by
:func:`treduce`, which evaluates an expression straight into the field and
reads the result back from the field's own reduced fraction; no SymPy
simplification runs on the way:

* trivial tower: into Q(x, t, theta), theta an indeterminate, so the
  canonical form is the cancelled fraction num/den with the leading
  coefficient of den (lex order, x > t > theta) positive;
* nontrivial tower: the expression tree is evaluated in K[theta]/(m),
  K = Q(x, t), and the result is a polynomial in theta of degree < deg(m)
  whose coefficients are cancelled fractions in the same form.

Input outside the field raises :class:`FieldError`; a denominator that is
zero mod m raises ZeroDivisionError.

The shift sigma acts by x -> x+1 and the derivation delta by d/dt with
delta(x) = 0.

All exact linear algebra runs on :class:`~sympy.polys.matrices.DomainMatrix`
over K = Q(x, t) (``QQ_XT``).  A matrix over the tower is held as its
K-form, the K-matrix of its regular representation (:func:`regular_matrix`;
the trivial tower is the case of degree 1), converted at the boundary by
:func:`dm_from_matrix` and :func:`dm_to_matrix`.  Sums, products and
inverses over the tower are those of the K-forms; sigma, and delta with
:func:`dm_delta`, act on them too, and on the matrices over Q[x, t] of
cleared numerators that the fraction-free cocycle (:func:`dm_sigma_power`)
and integrability test multiply.  The ``Expr`` matrix helpers that
remain serve what is still ``Expr``: :func:`nullspace` and :func:`rank`
the hyperexponential side (the eigenvectors of ``closedform``, the
independence test of DP1's residual candidates).  :func:`treduce` and
:func:`shift` serve parsing and the places where a value enters or leaves
as an expression; :func:`k_shift` is sigma on K.  :func:`mat_reduce`,
:func:`mat_inv`, :func:`sigma_power_matrix`, :func:`factor_in_x` and
:func:`series_at_infinity` have no caller in the package (``difftools``
works on K and Q[x, t]); they stay for ``ddsolve``'s exports, the tests
and the benchmark tracer (``ddbench/tracer.py``), which names all but
:func:`mat_reduce`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import sympy as sp
from sympy import QQ
from sympy.polys.densearith import (dup_add, dup_lshift, dup_mul,
                                    dup_mul_ground, dup_quo_ground, dup_rem)
from sympy.polys.densebasic import dup_degree, dup_from_raw_dict, dup_strip
from sympy.polys.densetools import dup_compose, dup_diff, dup_eval
from sympy.polys.factortools import dup_factor_list
from sympy.polys.euclidtools import dup_invert
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError
from sympy.polys.polyerrors import CoercionFailed

x, t, theta = sp.symbols("x t theta")

# K = Q(x, t), the coefficient field of the trivial tower
QQ_XT = QQ.frac_field(x, t)
# Q(x, t, theta), theta an indeterminate: where treduce works on the
# trivial tower
_QQ_XTTH = QQ.frac_field(x, t, theta)
_X, _T_RING = QQ_XT.field.ring.gens   # x and t in Q[x, t], K's numerators
_T = QQ_XT.gens[1]                     # t in K

__all__ = [
    "x", "t", "theta", "Tower", "TRIVIAL_TOWER", "make_tower",
    "treduce", "teq", "tinv", "shift", "delta",
    "series_at_infinity", "factor_in_x", "roots_over_coeff_field",
    "AllEqual", "Split", "Conjugate", "MixedSplit",
    "mat_reduce", "mat_inv",
    "nullspace", "rank", "kernel", "regular_matrix", "from_regular",
    "regular_rows", "theta_coords", "from_theta_coords",
    "common_integer_roots", "x_integer_roots",
    "indicial_degrees",
    "sigma_power_matrix",
    "dm_from_matrix", "dm_to_matrix", "k_shift",
    "dm_shift", "dm_delta", "dm_inv", "dm_embed", "dm_conjugate",
    "dm_sigma_power",
    "dm_series_at_infinity",
]


class FieldError(Exception):
    pass


@dataclass(frozen=True)
class Tower:
    """Q(t)[theta]/(minpoly); minpoly None encodes the trivial tower Q(t)."""

    minpoly: Optional[sp.Expr]  # monic polynomial in theta over Q(t), or None
    dtheta: sp.Expr             # delta(theta) as an element of the tower
    degree: int

    @property
    def trivial(self) -> bool:
        return self.minpoly is None

    def conjugates(self) -> list[sp.Expr]:
        """All roots of minpoly that lie inside the tower itself (theta first).

        For degree 2 this is always both roots; for higher degree we search
        for linear-in-theta roots and may come up short.
        """
        if self.trivial:
            return []
        if self.degree == 2:
            # theta' = -a1 - theta for m = Y^2 + a1*Y + a0
            a1 = sp.Poly(self.minpoly, theta).all_coeffs()[1]
            return [theta, treduce(-a1 - theta, self)]
        found = [theta]
        # linear-substitution root search: candidates u + v*theta
        u, v = sp.symbols("_u _v")
        cand = treduce(self.minpoly.subs(theta, u + v * theta), self)
        sols = sp.solve(
            [sp.numer(sp.cancel(c)) for c in sp.Poly(cand, theta).all_coeffs()],
            [u, v], dict=True)
        for s in sols:
            if v in s and u in s:
                root = treduce(s[u] + s[v] * theta, self)
                if not any(teq(root, r, self) for r in found):
                    found.append(root)
        return found


TRIVIAL_TOWER = Tower(None, sp.Integer(0), 1)


@functools.lru_cache(maxsize=None)
def _modulus(tower: Tower):
    """The minimal polynomial of the tower as a dense list over K, highest
    degree first; None for the trivial tower."""
    if tower.trivial:
        return None
    return sp.Poly(tower.minpoly, theta, domain=QQ_XT).rep.to_list()


def make_tower(minpoly: sp.Expr, var: sp.Symbol = None) -> Tower:
    """Build the tower Q(t)[theta]/(m) for a monic irreducible m over Q(t).

    Degree-1 input returns the trivial tower.  dtheta is computed from
    m'(theta)*dtheta + (dm/dt)(theta) = 0.
    """
    if var is not None and var is not theta:
        minpoly = minpoly.subs(var, theta)
    P = sp.Poly(sp.together(minpoly), theta, domain=QQ.frac_field(t))
    if not P.LC() == 1:
        raise FieldError("minimal polynomial must be monic")
    if P.degree() == 1:
        # theta is rational: Y - r; the tower is trivial
        return TRIVIAL_TOWER
    factors = P.factor_list()[1]
    if len(factors) != 1 or factors[0][1] != 1:
        raise FieldError("minimal polynomial is reducible over Q(t)")
    tower = Tower(P.as_expr(), sp.Integer(0), P.degree())
    mprime = sp.diff(tower.minpoly, theta)
    mdt = sp.diff(tower.minpoly, t)
    dtheta = treduce(-mdt * tinv(mprime, tower), tower)
    return Tower(tower.minpoly, dtheta, tower.degree)


def treduce(f, tower: Tower = TRIVIAL_TOWER):
    """Canonical form of a tower-valued rational function of x.

    On the trivial tower f is evaluated in Q(x, t, theta), theta an
    indeterminate; on a tower, in K[theta]/(m).  The result is read back
    from the reduced field element (see the module docstring).  FieldError
    for input outside the field, ZeroDivisionError for a denominator that
    is zero in the tower."""
    if tower.trivial:
        return _frac_expr(_field_element(_QQ_XTTH, f, "Q(x, t, theta)"))
    return _tower_expr(_tower_element(f, tower))


def _field_element(field, e, name: str):
    """e as an element of the rational function field `field`."""
    try:
        return field.from_sympy(sp.sympify(e))
    except (CoercionFailed, ValueError):
        raise FieldError(f"entry not in {name}: {e}")


def _frac_expr(c):
    """A reduced fraction as num/den, negated so that the leading
    coefficient of den (lex order) is positive: the form of sp.cancel."""
    num, den = c.numer, c.denom
    if den.LC < 0:
        num, den = -num, -den
    return num.as_expr() / den.as_expr()


def _tower_element(e, tower: Tower) -> list:
    """e as a dense polynomial in theta over K, highest degree first,
    reduced mod the minimal polynomial."""
    mod = _modulus(tower)
    if mod is None:
        return dup_strip([_field_element(QQ_XT, e, "Q(x, t)")])
    return _eval_mod(sp.sympify(e), mod)


def _eval_mod(e, mod) -> list:
    """Evaluate the expression tree e in K[theta]/(mod), bottom up."""
    if e == theta:
        return [QQ_XT.one, QQ_XT.zero]   # deg mod >= 2
    if not e.has(theta):
        return dup_strip([_field_element(QQ_XT, e, "Q(x, t)")])
    if e.is_Add:
        out = []
        for a in e.args:
            out = dup_add(out, _eval_mod(a, mod), QQ_XT)
        return out
    if e.is_Mul:
        out = [QQ_XT.one]
        for a in e.args:
            out = dup_rem(dup_mul(out, _eval_mod(a, mod), QQ_XT), mod, QQ_XT)
        return out
    if e.is_Pow and e.exp.is_Integer:
        base, n = _eval_mod(e.base, mod), int(e.exp)
        if n < 0:
            if not base:
                raise ZeroDivisionError("denominator is zero in the tower")
            # m is irreducible and base is nonzero mod m: base is invertible
            base, n = dup_invert(base, mod, QQ_XT), -n
        out = [QQ_XT.one]
        for _ in range(n):
            out = dup_rem(dup_mul(out, base, QQ_XT), mod, QQ_XT)
        return out
    raise FieldError(f"entry not in Q(x, t)(theta): {e}")


def _tower_expr(a: list):
    """A dense polynomial in theta over K in the canonical form of
    treduce."""
    return sp.Add(*(_frac_expr(c) * theta**k
                    for k, c in enumerate(reversed(a))))


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


def series_at_infinity(f, terms: int, tower: Tower = TRIVIAL_TOWER):
    """Expansion f = (1/x)^ord * (c0 + c1/x + ...), exact.

    Returns (ord, [c0, ..., c_{terms-1}]) or None for f = 0; the c_k are
    in the canonical form of treduce."""
    D = dm_from_matrix(sp.Matrix([f]), tower)
    if D.is_zero_matrix:
        return None
    ord_, coeffs = dm_series_at_infinity(D, terms)
    return ord_, [dm_to_matrix(C, tower)[0] for C in coeffs]


def factor_in_x(p, tower: Tower = TRIVIAL_TOWER):
    """Factor a polynomial in x over the coefficient field.

    Returns (content, [(monic irreducible in x, multiplicity), ...]) with
    content * prod(factor^mult) = p.  With a nontrivial tower the factors
    are only guaranteed irreducible over Q(t)(theta-as-symbol); that is
    sufficient for the shift-class analysis built on top.
    """
    p = treduce(p, tower)
    if p == 0:
        raise FieldError("factor_in_x needs a nonzero polynomial")
    num, den = p.as_numer_denom()
    if x in den.free_symbols:
        raise FieldError("not a polynomial in x over the coefficient field")
    if theta in num.free_symbols:
        coeff, raw = sp.factor_list(num)
        factors = []
        content = coeff / den
        for fac, mult in raw:
            if x not in fac.free_symbols:
                content = content * fac**mult
                continue
            lc = sp.Poly(fac, x).LC()
            content = content * lc**mult
            factors.append((sp.expand(sp.cancel(fac / lc)), mult))
        return treduce(content, tower), factors
    dom = QQ.frac_field(t)
    P = sp.Poly(num, x, domain=dom)
    coeff, raw = P.factor_list()
    content = sp.cancel(dom.to_sympy(coeff) / den)
    factors = []
    for fac, mult in raw:
        lc = fac.LC()
        content = sp.cancel(content * dom.to_sympy(lc)**mult)
        factors.append((sp.expand((fac.monic()).as_expr()), mult))
    return content, factors


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


def common_integer_roots(slices: list) -> list:
    """Sorted integers that are roots of every nonzero dense polynomial
    over Q in `slices`; the candidates are the rational roots of the
    first."""
    _, factors = dup_factor_list(slices[0], QQ)
    cands = [-f[1] / f[0] for f, _ in factors if len(f) == 2]
    return sorted(int(r) for r in cands if r.denominator == 1
                  and all(not dup_eval(s, r, QQ) for s in slices))


def x_integer_roots(p) -> list:
    """Sorted integer roots in x of a nonzero p in Q[x, t] (the ring of
    K's numerators): the common roots of its slices by powers of t."""
    slices: dict = {}
    for (i, k), c in p.terms():
        slices.setdefault(k, {})[i] = c
    return common_integer_roots([dup_from_raw_dict(s, QQ)
                                 for s in slices.values()])


def _slices(p: list, K) -> list:
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


def indicial_degrees(Q: list, m: int, K, rmax: int = 80):
    """Degree candidates for polynomial solutions of
    sum_i Q_i(x) C(x + m*i) = 0, the Q_i dense in x over K (see
    :func:`_slices`): the nonnegative integer roots of the first nonzero
    indicial polynomial at x = infinity, None when there is none up to
    rmax."""
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
            return [d for d in common_integer_roots(_slices(phi, K))
                    if d >= 0]
    return None


# ---------------------------------------------------------------------------
# classification of the beta-polynomial over Q(t)

@dataclass(frozen=True)
class AllEqual:
    root: sp.Expr


@dataclass(frozen=True)
class Split:
    roots: tuple


@dataclass(frozen=True)
class Conjugate:
    minpoly: sp.Expr  # irreducible over Q(t), in the classification variable


@dataclass(frozen=True)
class MixedSplit:
    factors: tuple


def roots_over_coeff_field(P, var: sp.Symbol, n: int):
    """Classify a degree-n polynomial over Q(t): AllEqual / Split / Conjugate.

    Any other factorization shape is reported as MixedSplit (the caller
    exits; n prime rules these out for genuine beta-polynomials).
    """
    Pp = sp.Poly(sp.cancel(sp.together(P)), var, domain=QQ.frac_field(t))
    if Pp.degree() != n:
        raise FieldError("degree mismatch in roots_over_coeff_field")
    _, raw = Pp.factor_list()
    if len(raw) == 1 and raw[0][0].degree() == n and raw[0][1] == 1 and n > 1:
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
    return MixedSplit(tuple((fac.monic().as_expr(), mult) for fac, mult in raw))


# ---------------------------------------------------------------------------
# matrix helpers

def mat_reduce(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> sp.Matrix:
    return M.applyfunc(lambda e: treduce(e, tower))


def mat_inv(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> sp.Matrix:
    """M^-1 over the tower; FieldError when M is singular."""
    return dm_to_matrix(dm_inv(dm_from_matrix(M, tower)), tower)


def nullspace(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> list:
    """Basis of {v : M v = 0} over the tower, in the canonical form of
    treduce: the vectors Matrix.nullspace returns, in the same order.

    In the reduced row echelon form of the regular representation the deg
    columns of one tower column are all pivots or all free.  The K-basis
    vector of free column (j, k) is then the coordinate vector of v_j *
    theta^k, v_j being the basis vector over the tower with 1 at j and 0
    at every other free column, so the K-basis, as columns, is the regular
    representation of the matrix [v_1 ... v_f]."""
    N = dm_to_matrix(kernel(dm_from_matrix(M, tower)).transpose(), tower)
    return [N[:, j] for j in range(N.cols)]


def rank(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> int:
    """Rank of M over the tower."""
    _, pivots = dm_from_matrix(M, tower).rref()
    return len(pivots) // tower.degree


def kernel(D: DomainMatrix) -> DomainMatrix:
    """Null-space basis of D, one vector per row, read off its reduced row
    echelon form: the k-th vector is 1 at the k-th free column and 0 at
    the others."""
    rref, pivots = D.rref()
    return rref.nullspace_from_rref(pivots)


def theta_coords(v: list, deg: int, zero) -> list:
    """The coordinates of a vector of tower elements (dense polynomials in
    theta of degree below `deg`, highest degree first) over their ground
    ring, theta^0 first within each entry: the layout of a column of the
    regular representation."""
    return [c for a in v for c in a[::-1] + [zero] * (deg - len(a))]


def from_theta_coords(c: list, deg: int) -> list:
    """The vector of tower elements whose coordinates are c."""
    return [dup_strip(c[i:i + deg][::-1]) for i in range(0, len(c), deg)]


def regular_rows(entries: list, shape: tuple, deg: int, times_theta,
                 zero) -> list:
    """The rows of the regular representation of a matrix over a ring
    extended by theta of degree `deg`.

    `entries` lists the matrix row-major as dense polynomials in theta,
    highest degree first, reduced.  Entry (i, j) becomes the deg x deg
    block at rows i*deg + r, columns j*deg + k that holds the coefficient
    of theta^r in times_theta(entry, k), the reduced entry * theta^k."""
    rows = [[] for _ in range(shape[0] * deg)]
    for idx, a in enumerate(entries):
        i = idx // shape[1] * deg
        for k in range(deg):
            for r, c in enumerate(theta_coords([times_theta(a, k)], deg,
                                               zero)):
                rows[i + r].append(c)
    return rows


def regular_matrix(entries: list, shape: tuple, mod, K) -> DomainMatrix:
    """The K-matrix of the regular representation of a matrix over
    L = K[theta]/(mod), or over K itself when mod is None (degree 1).

    `entries` lists the matrix row-major as dense polynomials in theta
    over K, highest degree first, reduced mod `mod` (layout in
    :func:`regular_rows`).  The map is a ring homomorphism, so products,
    inverses and solves over L are those of the K-matrices;
    :func:`from_regular` reads the result back."""
    deg = 1 if mod is None else len(mod) - 1

    def times_theta(a, k):
        return dup_rem(dup_lshift(a, k, K), mod, K) if k else a

    rows = regular_rows(entries, shape, deg, times_theta, K.zero)
    return DomainMatrix(rows, (shape[0] * deg, shape[1] * deg), K)


def from_regular(R: DomainMatrix, deg: int) -> list:
    """Entries, row-major, of the matrix over L whose regular
    representation is R: entry (i, j) is sum_k R[i*deg + k, j*deg] theta^k."""
    rows = R.to_list()
    return [from_theta_coords([rows[i + k][j] for k in range(deg)], deg)[0]
            for i in range(0, R.shape[0], deg)
            for j in range(0, R.shape[1], deg)]


def dm_from_matrix(M: sp.Matrix,
                   tower: Tower = TRIVIAL_TOWER) -> DomainMatrix:
    """M as the K-matrix of its regular representation over the tower (M
    itself over K for the trivial tower); FieldError for an entry outside
    the tower."""
    return regular_matrix([_tower_element(e, tower) for e in M], M.shape,
                          _modulus(tower), QQ_XT)


def dm_to_matrix(D: DomainMatrix, tower: Tower = TRIVIAL_TOWER) -> sp.Matrix:
    """The matrix over the tower whose regular representation is D, with
    entries in the canonical form of treduce."""
    deg = tower.degree
    return sp.Matrix(D.shape[0] // deg, D.shape[1] // deg,
                     [_tower_expr(a) for a in from_regular(D, deg)])


def k_shift(e, j: int = 1):
    """sigma^j on an element of K.  x -> x + j is an automorphism of
    Z[x, t] that keeps the top coefficient in x, so a reduced fraction stays
    reduced with the same lex leading coefficient: no cancel is needed."""
    xj = _X + j
    return e.raw_new(e.numer.compose(_X, xj), e.denom.compose(_X, xj))


def dm_shift(D: DomainMatrix, j: int = 1) -> DomainMatrix:
    """sigma^j over K, or over Q[x, t]: x -> x + j in every entry."""
    if D.domain.is_PolynomialRing:
        return D.applyfunc(lambda p: p.compose(_X, _X + j))
    return D.applyfunc(lambda e: k_shift(e, j))


def dm_delta(D: DomainMatrix, tower: Tower = TRIVIAL_TOWER) -> DomainMatrix:
    """delta on a K-form over the tower: an entry sum_k a_k theta^k goes to
    sum_k (d/dt a_k) theta^k + a'(theta) delta(theta) mod m.  Over the
    trivial tower D may also be a matrix over Q[x, t]."""
    if tower.trivial:
        t_ = _T_RING if D.domain.is_PolynomialRing else _T
        return D.applyfunc(lambda e: e.diff(t_))
    mod, dtheta = _modulus(tower), _tower_element(tower.dtheta, tower)
    entries = [dup_add(dup_strip([c.diff(_T) for c in a]), dup_rem(dup_mul(
        dup_diff(a, 1, QQ_XT), dtheta, QQ_XT), mod, QQ_XT), QQ_XT)
        for a in from_regular(D, tower.degree)]
    return regular_matrix(entries, (D.shape[0] // tower.degree,
                                    D.shape[1] // tower.degree), mod, QQ_XT)


def dm_conjugate(D: DomainMatrix, conj, tower: Tower) -> DomainMatrix:
    """A K-form over the tower with theta replaced by conj, a root of the
    minimal polynomial in the tower."""
    mod, root = _modulus(tower), _tower_element(conj, tower)
    entries = [dup_rem(dup_compose(a, root, QQ_XT), mod, QQ_XT)
               for a in from_regular(D, tower.degree)]
    return regular_matrix(entries, (D.shape[0] // tower.degree,
                                    D.shape[1] // tower.degree), mod, QQ_XT)


def dm_embed(D: DomainMatrix, tower: Tower) -> DomainMatrix:
    """The K-form over the tower of a matrix D over K."""
    return regular_matrix([[a] if a else [] for a in D.to_list_flat()],
                          D.shape, _modulus(tower), QQ_XT)


def dm_inv(D: DomainMatrix) -> DomainMatrix:
    """D^-1; FieldError when D is singular."""
    try:
        return D.inv()
    except DMNonInvertibleMatrixError:
        raise FieldError("matrix not invertible")


def dm_series_at_infinity(D: DomainMatrix, terms: int):
    """Expansion D = (1/x)^ord * (C0 + C1/x + ...) of a nonzero matrix over
    K: (ord, [C0, ..., C_{terms-1}]) with entries in Q(t).  An entry
    num/den expands by dividing the coefficients of num and den in x, read
    from the top.  The regular representation is Q(t)-linear, so on it this
    is the expansion of the matrix over the tower."""
    if terms < 1:
        raise ValueError("terms >= 1 required")
    series = {}
    for ij, c in D.to_dok().items():
        (dn, a), (dd, b) = (_top_coeffs(p, terms) for p in (c.numer, c.denom))
        cs = []
        for k in range(terms):
            cs.append((a[k] - sum((cs[i] * b[k - i] for i in range(k)),
                                  QQ_XT.zero)) / b[0])
        series[ij] = dd - dn, cs
    if not series:
        raise ValueError("zero matrix has no expansion")
    ord_ = min(o for o, _ in series.values())
    return ord_, [DomainMatrix.from_dok(
        {ij: cs[k - o + ord_] for ij, (o, cs) in series.items()
         if k >= o - ord_}, D.shape, QQ_XT) for k in range(terms)]


def _top_coeffs(p, terms: int):
    """deg_x p and its first `terms` coefficients in x from the top, in K."""
    d = p.degree(_X)
    return d, [QQ_XT.new(p.coeff_wrt(_X, d - k)) if k <= d else QQ_XT.zero
               for k in range(terms)]


def sigma_power_matrix(A: sp.Matrix, m: int) -> sp.Matrix:
    """Cocycle product A_m = sigma^{m-1}(A) ... sigma(A) A (m >= 1) of a
    system matrix A over K = Q(x, t), in the canonical form of treduce:
    the SymPy form of :func:`dm_sigma_power`."""
    return dm_to_matrix(dm_sigma_power(dm_from_matrix(A), m))


def dm_sigma_power(D: DomainMatrix, m: int) -> DomainMatrix:
    """The cocycle A_m = sigma^{m-1}(A) ... sigma(A) A of the matrix A over
    K whose K-form is D (D itself for m = 1), formed fraction-free: with
    A = N/a, N over Q[x, t] and a in Q[x, t] (one clear_denoms),
    A_m = sigma^{m-1}(N) ... N / (sigma^{m-1}(a) ... a).  The shifted
    numerators multiply over Q[x, t] with no gcd, and each entry of the
    product is divided by the product of the shifted denominators once,
    where m - 1 products over K would cancel every entry of each."""
    if m < 1:
        raise ValueError("m >= 1 required")
    if m == 1:
        return D
    a, N = D.clear_denoms(convert=True)
    num, den = N, a.element
    for j in range(1, m):
        num = dm_shift(N, j) * num
        den = den * a.element.compose(_X, _X + j)
    elems, data = num.to_flat_nz()
    return D.from_flat_nz([QQ_XT.field.new(p, den) for p in elems], data,
                          QQ_XT)
