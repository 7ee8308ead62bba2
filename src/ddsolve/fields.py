"""Exact arithmetic for the coefficient tower Q < Q(t) < Q(t)[theta]/(m(theta)).

Field elements and matrices are held as K-forms (below) inside the
procedures; :mod:`ddsolve.parsing` evaluates the entries of solution
files straight into them.  Sympy expressions in the global symbols x, t,
theta are the form of the expression API (:func:`treduce`, the entries
of system files, the sympy matrices of a system or a solution, the
report), converted at that boundary by :class:`Fractions`.  A
:class:`Tower` is held as its K-form too: the minimal polynomial of theta
over Q(t) (None for the trivial tower) and delta(theta), obtained by
implicit differentiation (:func:`tower_from_modulus`; :func:`make_tower`
converts a sympy polynomial into it).  Canonical forms are produced by
:func:`treduce`, which evaluates an expression straight into the field
and reads the result back from the field's own reduced fraction; no
SymPy simplification runs on the way:

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

K = Q(x, t) (``QQ_XT``) and Q(t) (``QQ_T``) are built as the fields of
fractions of Z[x, t] and Z[t]: the same fields, with every numerator and
denominator over the integers, so that a coefficient is a Python int and
a cancel takes its gcd over Z directly.  Two rules follow.  A quotient
of two ground coefficients is formed in QQ, ``QQ(p, q)``, never with
``/``, which on two ints gives a float that a domain would silently
rationalize; :func:`t_value` evaluates at a rational t in QQ, and
:func:`dense_fraction` brings a fraction of polynomials over QQ into
the field.  And an lcm over Z keeps its integer content
(:func:`_lcm`).  The heuristic gcd behind every cancel can fail on valid
input; :func:`_gcd_ZZ`, installed as SymPy's ``PolyElement._gcd_ZZ``
for the whole process, falls back to a PRS gcd.

All exact linear algebra runs on :class:`~sympy.polys.matrices.DomainMatrix`
over K.  A matrix over the tower is held as its
K-form, the K-matrix of its regular representation (:func:`regular_matrix`;
the trivial tower is the case of degree 1), converted at the boundary by
:func:`dm_from_matrix` and :func:`dm_to_matrix`.  Sums, products and
inverses over the tower are those of the K-forms; sigma, and delta with
:func:`dm_delta`, act on them too, and on matrices over Z[x, t].

Exact identities between K-matrices are decided fraction-free, so that no
gcd runs inside a matrix product.  :func:`dm_clear` writes D = N/q, q the
lcm over Z[x, t] of the distinct denominators and N over Z[x, t].
:func:`dm_same` compares two sums of products of K-matrices and elements
of K: it multiplies the cleared numerators over Z[x, t] and scales each
term by lcm/den.  The certificate identities, the gauge identities and
the substitution checks all go through it.  :func:`dm_delta_part` forms
a gauge's delta-part G^-1 (B G - delta(G)) with one ``inv_den`` over
Z[x, t] and one cancel per entry.  The cocycle (:func:`dm_sigma_power`)
and the integrability test multiply cleared numerators too.

:func:`common_integer_roots` is the one integer-root routine (degree
bounds, indicial polynomials, the pole scans of the lift and the numeric
window): Hensel lifting of the roots mod a small prime, with no
polynomial factored, so its cost follows the bit size of the input.
The objects a system derives from A are formed once on
``procedures.DDSystem``, not here: det A of its K-form, and the inverse
A_m^-1 of each cocycle (:func:`dm_inv`), from which a rational solve
reads (A_m/r)^-1 as r A_m^-1 (:func:`dm_diag` forms r I_n over a
tower).

An x-free K-matrix is read over Q(t) = ``QQ_T`` by :func:`dm_over_qt`,
and :func:`charpoly_factors` factors its characteristic polynomial
there, once, for the eigenvalues of ``closedform``'s delta-side and
``moser``'s classification.  A null space over the tower is
:func:`kernel` of the K-form, whose basis is the K-form of one over the
tower.  An element of a tower is a dense list over K (highest power of
theta first, reduced mod m), and :func:`dm_diag` forms the K-form of a
diagonal matrix of them; :func:`element_expr` and :func:`dm_to_matrix`
form the expressions of the report and of the expression API, and
:func:`treduce` serves parsing and printing.  :func:`k_shift` is sigma
on K.  :func:`mat_inv`, :func:`sigma_power_matrix`, :func:`factor_in_x`
and :func:`series_at_infinity` have no caller in the package
(``difftools`` works on K and Z[x, t]); they stay for ``ddsolve``'s
exports, the tests and the benchmark tracer (``ddbench/tracer.py``),
which names them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import sympy as sp
from sympy import QQ, ZZ, nextprime
from sympy.polys.densearith import (dup_add, dup_lshift, dup_mul,
                                    dup_mul_ground, dup_neg, dup_quo_ground,
                                    dup_rem)
from sympy.polys.densebasic import dup_degree, dup_from_raw_dict, dup_strip
from sympy.polys.densetools import (dup_clear_denoms, dup_compose, dup_diff,
                                    dup_eval, dup_primitive)
from sympy.polys.euclidtools import dup_invert
from sympy.polys.galoistools import gf_eval, gf_from_int_poly, gf_sqf_p
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError
from sympy.polys.heuristicgcd import heugcd
from sympy.polys.polyerrors import CoercionFailed, HeuristicGCDFailed
from sympy.polys.rings import PolyElement
from sympy.polys.sqfreetools import dup_sqf_part

x, t, theta = sp.symbols("x t theta")

# K = Q(x, t), the coefficient field of the trivial tower, and Q(t), built
# as Frac(Z[x, t]) and Frac(Z[t]): numerators and denominators over Z
QQ_XT = ZZ.frac_field(x, t)
QQ_T = ZZ.frac_field(t)
# Q(x, t, theta), theta an indeterminate: where treduce, parse_element and
# print_ratfunc work on the trivial tower
_QQ_XTTH = ZZ.frac_field(x, t, theta)
_K_RING = QQ_XT.field.ring             # Z[x, t], K's numerators
_X, _T_RING = _K_RING.gens             # x and t in Z[x, t]
_XT_RING_ONE = _K_RING.one
_QQ_XT_RING = QQ_XT.get_ring()         # Z[x, t] as a domain
_T = QQ_XT.gens[1]                     # t in K
# the variable of characteristic polynomials and the classification
_Y = sp.Symbol("Y")

__all__ = [
    "x", "t", "theta", "Tower", "TRIVIAL_TOWER", "make_tower",
    "tower_from_modulus", "theta_poly", "Fractions", "TowerArithmetic",
    "treduce", "element_expr",
    "series_at_infinity", "factor_in_x", "charpoly_factors", "dm_over_qt",
    "AllEqual", "Split", "Conjugate", "MixedSplit",
    "mat_inv",
    "kernel", "regular_matrix", "from_regular",
    "regular_rows", "theta_coords", "from_theta_coords",
    "common_integer_roots", "x_integer_roots", "t_value", "dense_fraction",
    "indicial_degrees",
    "sigma_power_matrix",
    "dm_from_matrix", "dm_to_matrix", "dm_diag", "k_shift",
    "dm_shift", "dm_delta", "dm_inv", "dm_embed", "dm_conjugate",
    "dm_sigma_power", "dm_clear", "dm_same", "dm_delta_part",
    "dm_series_at_infinity",
]


def _gcd_ZZ(f, g):
    """(gcd, f / gcd, g / gcd) for f and g over Z.  SymPy's sparse
    polynomials take it from the heuristic gcd alone (Char, Geddes and
    Gonnet, JSC 7, 1989), which can raise HeuristicGCDFailed on valid
    input; the dense ``dmp_inner_gcd`` then retries with a subresultant
    PRS.  The gcd is unique up to sign, made positive in its leading
    coefficient here; ``cancel`` normalizes the denominator's sign after
    it, so no value changes."""
    try:
        return heugcd(f, g)
    except HeuristicGCDFailed:
        h, cff, cfg = f.ring.dmp_inner_gcd(f, g)
        return (-h, -cff, -cfg) if h.LC < 0 else (h, cff, cfg)


# every product and quotient in K and Q(t) cancels through this gcd.  The
# patch applies to all of SymPy's sparse polynomials over Z in the process
PolyElement._gcd_ZZ = _gcd_ZZ


class FieldError(Exception):
    pass


@dataclass(frozen=True)
class Tower:
    """Q(t)[theta]/(m), m monic and irreducible over Q(t), held as its
    K-form: ``modulus`` is m and ``delta_theta`` is delta(theta) mod m, both
    dense tuples over K = Q(x, t) (x-free), highest degree first.  The
    trivial tower Q(t) has modulus None.  :func:`tower_from_modulus` builds
    one; :attr:`minpoly` and :attr:`dtheta`, the same as sympy expressions,
    are formed on first read."""

    modulus: Optional[tuple]
    delta_theta: tuple
    degree: int

    @property
    def trivial(self) -> bool:
        return self.modulus is None

    @functools.cached_property
    def minpoly(self) -> Optional[sp.Expr]:
        """m as a polynomial in theta over Q(t), None for the trivial
        tower."""
        if self.trivial:
            return None
        return sp.Poly.from_list([QQ_T.convert_from(c, QQ_XT)
                                  for c in self.modulus],
                                 theta, domain=QQ_T).as_expr()

    @functools.cached_property
    def dtheta(self) -> sp.Expr:
        """delta(theta), an element of the tower."""
        return element_expr(list(self.delta_theta))

    def conjugates(self) -> list:
        """The roots of minpoly that lie inside the tower itself, theta
        first, as elements of the tower (dense lists over K).

        For degree 2 these are both roots.  For a higher degree and a
        minpoly over Q they are read from the linear factors of minpoly
        over Q(r), r a root, in powers of r = theta; over Q(t) only theta
        is returned, and a caller that needs n roots gives up."""
        if self.trivial:
            return []
        th = [QQ_XT.one, QQ_XT.zero]
        if self.degree == 2:
            # theta' = -a1 - theta for m = Y^2 + a1*Y + a0
            return [th, [-QQ_XT.one, -self.modulus[1]]]
        if any(not (c.numer.is_ground and c.denom.is_ground)
               for c in self.modulus):
            return [th]
        P = sp.Poly([QQ(c.numer.LC, c.denom.LC) for c in self.modulus],
                    theta, domain=QQ)
        K = QQ.algebraic_field(sp.CRootOf(P, 0))
        found = [th]
        for f, _ in P.set_domain(K).factor_list()[1]:
            if f.degree() == 1:     # f = theta - root, root in Q[r]
                root = [QQ_XT.convert_from(c, QQ) for c in
                        (-f.monic().rep.to_list()[1]).to_list()]
                if root != th:
                    found.append(root)
        return found


TRIVIAL_TOWER = Tower(None, (), 1)


def _modulus(tower: Tower):
    """The minimal polynomial of the tower as a dense list over K, highest
    degree first; None for the trivial tower."""
    return None if tower.trivial else list(tower.modulus)


def _irreducible(mod: list) -> bool:
    """Whether the polynomial mod over Q(t) (dense over K, x-free) is
    irreducible over Q(t).  By Gauss's lemma it is when its numerator over
    Z[t, theta], denominators cleared, has exactly one factor of positive
    degree in theta, of multiplicity 1."""
    q, deg, terms = _lcm(c.denom for c in mod if c), len(mod) - 1, {}
    for k, c in enumerate(mod):
        if c:
            for (_, j), a in (c.numer * q.exquo(c.denom)).terms():
                terms[(j, deg - k)] = a
    _, factors = ZZ.poly_ring(t, theta).ring.from_dict(terms).factor_list()
    return [e for f, e in factors if f.degree(1) > 0] == [1]


def tower_from_modulus(mod: list) -> Tower:
    """The tower Q(t)[theta]/(m) of m, a dense polynomial in theta over K,
    highest degree first, that is over Q(t), monic and irreducible there;
    FieldError otherwise.  Degree 1 gives the trivial tower.  delta(theta)
    solves m'(theta) delta(theta) + (dm/dt)(theta) = 0 mod m."""
    mod = dup_strip(list(mod))
    if any(c.numer.degree(_X) > 0 or c.denom.degree(_X) > 0 for c in mod):
        raise FieldError("minimal polynomial must be over Q(t)")
    if not mod or mod[0] != QQ_XT.one:
        raise FieldError("minimal polynomial must be monic")
    if len(mod) == 2:
        # theta is rational: Y - r; the tower is trivial
        return TRIVIAL_TOWER
    if len(mod) < 2 or not _irreducible(mod):
        raise FieldError("minimal polynomial is reducible over Q(t)")
    mdt = dup_strip([c.diff(_T) for c in mod])
    dtheta = dup_rem(dup_mul(dup_neg(mdt, QQ_XT), dup_invert(
        dup_diff(mod, 1, QQ_XT), mod, QQ_XT), QQ_XT), mod, QQ_XT)
    return Tower(tuple(mod), tuple(dtheta), len(mod) - 1)


def theta_poly(f) -> list:
    """An element f of Q(x, t, theta), theta an indeterminate, as a dense
    polynomial in theta over K, highest degree first; FieldError when theta
    occurs in its denominator."""
    num, den = f.numer, f.denom
    if den.degree(2) > 0:
        raise FieldError("theta in a denominator: not a polynomial in theta")
    den = _K_RING.from_dict({(i, j): c for (i, j, _), c in den.items()})
    coeffs: dict = {}
    for (i, j, k), c in num.items():
        coeffs.setdefault(k, {})[(i, j)] = c
    if list(coeffs) in ([], [0]):
        # num and den are coprime: so is the theta-free part
        return dup_strip([QQ_XT.field.raw_new(
            _K_RING.from_dict(coeffs.get(0, {})), den)])
    return dup_strip([QQ_XT.field.new(_K_RING.from_dict(coeffs.get(k, {})),
                                      den)
                      for k in range(max(coeffs), -1, -1)])


def make_tower(minpoly: sp.Expr, var: sp.Symbol = None) -> Tower:
    """:func:`tower_from_modulus` of a sympy polynomial in theta (or in
    var) over Q(t)."""
    if var is not None and var is not theta:
        minpoly = minpoly.subs(var, theta)
    return tower_from_modulus(theta_poly(
        _field_element(_QQ_XTTH, minpoly, "Q(x, t, theta)")))


def treduce(f, tower: Tower = TRIVIAL_TOWER):
    """Canonical form of a tower-valued rational function of x.

    On the trivial tower f is evaluated in Q(x, t, theta), theta an
    indeterminate; on a tower, in K[theta]/(m).  The result is read back
    from the reduced field element (see the module docstring).  FieldError
    for input outside the field, ZeroDivisionError for a denominator that
    is zero in the tower."""
    if tower.trivial:
        return _frac_expr(_field_element(_QQ_XTTH, f, "Q(x, t, theta)"))
    return element_expr(_tower_element(f, tower))


def _field_element(field, e, name: str):
    """e as an element of the rational function field `field`: evaluated
    by :class:`Fractions` with one cancel at the end, or, for a node it
    does not read, by sympy's conversion (which cancels at every
    operation)."""
    try:
        e = sp.sympify(e)
        ar = Fractions(field)
        try:
            return ar.element(ar.from_expr(e))
        except CoercionFailed:
            return field.from_sympy(e)
    except (CoercionFailed, ValueError):
        raise FieldError(f"entry not in {name}: {e}")


class Fractions:
    """A field of rational functions over Q (Q(x, t), or Q(x, t, theta)
    with theta an indeterminate) as pairs (num, den) over its polynomial
    ring: no gcd on the way, :meth:`element` cancels once.  It evaluates
    :func:`treduce`'s expressions and the parsed entries of
    :mod:`ddsolve.parsing`."""

    def __init__(self, field):
        self.field, self.symbols = field.field, field.symbols
        self.ring = self.field.ring
        self.gens = dict(zip(map(str, self.symbols), self.ring.gens))

    def element(self, a):
        return self.field.new(*a)

    def integer(self, n: int):
        return self.ring(n), self.ring.one

    def var(self, name: str):
        return self.gens[name], self.ring.one

    def neg(self, a):
        return -a[0], a[1]

    def add(self, a, b):
        if a[1] == b[1]:
            return a[0] + b[0], a[1]
        return a[0] * b[1] + b[0] * a[1], a[1] * b[1]

    def mul(self, a, b):
        return a[0] * b[0], a[1] * b[1]

    def inv(self, a):
        if not a[0]:
            raise ZeroDivisionError("division by zero in expression")
        return a[1], a[0]

    def pow(self, a, n: int):
        if n < 0:
            a, n = self.inv(a), -n
        if not n:
            return self.ring.one, self.ring.one   # as sympy has it, 0^0 = 1
        return a[0] ** n, a[1] ** n

    def from_expr(self, e):
        """The sympy expression e built from the field's symbols and
        rationals by +, * and integer powers; CoercionFailed for any other
        node."""
        if e.is_Rational:
            return self.ring(e.p), self.ring(e.q)
        if e.is_Symbol and e in self.symbols:
            return self.var(e.name)
        if e.is_Add or e.is_Mul:
            op = self.add if e.is_Add else self.mul
            return functools.reduce(op, map(self.from_expr, e.args))
        if e.is_Pow and e.exp.is_Integer:
            return self.pow(self.from_expr(e.base), int(e.exp))
        raise CoercionFailed(e)


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
    if tower.trivial:
        return dup_strip([_field_element(QQ_XT, e, "Q(x, t)")])
    return _eval_mod(sp.sympify(e), TowerArithmetic(tower))


class TowerArithmetic:
    """K[theta]/(m) for a nontrivial tower: its elements are dense lists
    over K = Q(x, t), highest degree first, reduced mod m.  It evaluates
    :func:`treduce`'s expressions and the parsed entries of
    :mod:`ddsolve.parsing`, and forms DP1's ratios over a tower."""

    def __init__(self, tower: Tower):
        self.mod = _modulus(tower)

    def integer(self, n: int) -> list:
        return dup_strip([QQ_XT.convert(n)])

    def var(self, name: str) -> list:
        if name == "theta":
            return [QQ_XT.one, QQ_XT.zero]   # deg m >= 2
        return [QQ_XT.gens["xt".index(name)]]

    def neg(self, a: list) -> list:
        return dup_neg(a, QQ_XT)

    def add(self, a: list, b: list) -> list:
        return dup_add(a, b, QQ_XT)

    def mul(self, a: list, b: list) -> list:
        return dup_rem(dup_mul(a, b, QQ_XT), self.mod, QQ_XT)

    def inv(self, a: list) -> list:
        if not a:
            raise ZeroDivisionError("denominator is zero in the tower")
        if len(a) == 1:
            return [QQ_XT.one / a[0]]
        # m is irreducible and a is nonzero mod m: a is invertible
        return dup_invert(a, self.mod, QQ_XT)

    def pow(self, a: list, n: int) -> list:
        if n < 0:
            a, n = self.inv(a), -n
        out = [QQ_XT.one]
        for _ in range(n):
            out = self.mul(out, a)
        return out


def _eval_mod(e, ar: TowerArithmetic) -> list:
    """Evaluate the expression tree e in K[theta]/(m), bottom up."""
    if e == theta:
        return ar.var("theta")
    if not e.has(theta):
        return dup_strip([_field_element(QQ_XT, e, "Q(x, t)")])
    if e.is_Add:
        return functools.reduce(ar.add, (_eval_mod(a, ar) for a in e.args))
    if e.is_Mul:
        return functools.reduce(ar.mul, (_eval_mod(a, ar) for a in e.args))
    if e.is_Pow and e.exp.is_Integer:
        return ar.pow(_eval_mod(e.base, ar), int(e.exp))
    raise FieldError(f"entry not in Q(x, t)(theta): {e}")


def element_expr(a: list):
    """The element a of a tower (a dense polynomial in theta over K) as an
    expression in the canonical form of :func:`treduce`."""
    return sp.Add(*(_frac_expr(c) * theta**k
                    for k, c in enumerate(reversed(a))))


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


def common_integer_roots(slices: list) -> list:
    """Sorted integers that are roots of every nonzero dense polynomial
    over Q (or Z) in `slices`, found with no factoring.  The candidates
    are the integer roots of the first, cleared to a primitive polynomial
    f over Z (slices over Q come from the indicial polynomials and the
    denominators specialized at t0): 0 when x divides f, and the roots of
    the square-free part h of f / x^k, found p-adically.  For the least
    prime p that keeps h's
    degree and square-freeness mod p, each root of h mod p is simple and
    Newton (Hensel) lifting carries it to p^(2^j) > 2 B, B the Cauchy
    bound 1 + max |h_i| / |h_n| on the roots of h; its symmetric residue
    is the one integer in [-B, B] it can be, kept when h vanishes there.
    The cost grows with the degree and bit size of f, not with the size
    of its roots or coefficients."""
    f = dup_primitive(dup_clear_denoms(slices[0], QQ, convert=True)[1],
                      ZZ)[1]
    g = dup_strip(f[::-1])[::-1]            # f / x^k
    roots = [0] if len(g) < len(f) else []
    h = dup_sqf_part(g, ZZ)
    if len(h) > 1:
        bound = 1 + max(map(abs, h[1:])) // abs(h[0])
        p = 2
        while not h[0] % p or not gf_sqf_p(gf_from_int_poly(h, p), p, ZZ):
            p = nextprime(p)
        dh = dup_diff(h, 1, ZZ)
        for r0 in range(p):
            if gf_eval(h, r0, p, ZZ):
                continue
            r, mod = r0, p
            while mod <= 2 * bound:
                mod *= mod
                r = (r - gf_eval(h, r, mod, ZZ)
                     * pow(int(gf_eval(dh, r, mod, ZZ)), -1, mod)) % mod
            c = r - mod if 2 * r > mod else r
            if not dup_eval(h, ZZ(c), ZZ):
                roots.append(c)
    return sorted(r for r in roots
                  if all(not dup_eval(s, QQ(r), QQ) for s in slices[1:]))


def dense_fraction(field, num: list, den: list):
    """num / den in `field` (K or Q(t)) for num and den dense polynomials
    over QQ in the field's first generator, highest degree first.  Each
    is cleared to Z, and the two integer scales cross over: cn n / (cd d)
    = (n cd) / (d cn)."""
    ring = field.field.ring
    (cn, n), (cd, d) = (dup_clear_denoms(p, QQ, ZZ, convert=True)
                        for p in (num, den))
    zeros = (0,) * (ring.ngens - 1)
    n, d = (ring.from_dict({(k,) + zeros: c for k, c in enumerate(p[::-1])})
            for p in (n, d))
    return field.field.new(n * cd, d * cn)


def t_value(p, a):
    """The value in QQ at t = a, a in QQ, of p in Z[t] or of an x-free p
    in Z[x, t]."""
    return sum((c * a**k[-1] for k, c in p.terms()), QQ.zero)


def x_integer_roots(p) -> list:
    """Sorted integer roots in its first generator (x in Z[x, t], the ring
    of K's numerators) of a nonzero polynomial p over Z: the common roots
    of its slices by the monomials in the other generators."""
    slices: dict = {}
    for (i, *rest), c in p.terms():
        slices.setdefault(tuple(rest), {})[i] = c
    return common_integer_roots([dup_from_raw_dict(s, ZZ)
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
# classification of the eigenvalues of a matrix over Q(t)

@dataclass(frozen=True)
class AllEqual:
    root: object      # the one eigenvalue, in Q(t)


@dataclass(frozen=True)
class Split:
    roots: tuple      # the eigenvalues in Q(t), with multiplicity


@dataclass(frozen=True)
class Conjugate:
    modulus: tuple    # the characteristic polynomial, irreducible over
                      # Q(t): dense over K, the input of tower_from_modulus


@dataclass(frozen=True)
class MixedSplit:
    factors: tuple    # (factor, multiplicity), expressions in Y


def charpoly_factors(D: DomainMatrix) -> list:
    """The factors over Q(t) of the characteristic polynomial of the
    x-free square K-matrix D: (monic factor, multiplicity) pairs, the
    factors as Polys in Y over Q(t), in the order of Poly.factor_list."""
    P = sp.Poly(D.convert_to(QQ_T).charpoly(), _Y, domain=QQ_T)
    return [(f.monic(), mult) for f, mult in P.factor_list()[1]]


def dm_over_qt(D: DomainMatrix):
    """The K-matrix D over Q(t), or None when an entry involves x."""
    try:
        return D.convert_to(QQ_T)
    except CoercionFailed:
        return None


# ---------------------------------------------------------------------------
# matrix helpers

def mat_inv(M: sp.Matrix, tower: Tower = TRIVIAL_TOWER) -> sp.Matrix:
    """M^-1 over the tower; FieldError when M is singular."""
    return dm_to_matrix(dm_inv(dm_from_matrix(M, tower)), tower)


def kernel(D: DomainMatrix) -> DomainMatrix:
    """Null-space basis of D, one vector per row, read off its reduced row
    echelon form: the k-th vector is 1 at the k-th free column and 0 at
    the others.

    On the K-form of a matrix over a tower of degree deg, the deg columns
    of one tower column are all pivots or all free.  The vector of free
    column (j, k) is then the coordinate vector of v_j * theta^k, v_j
    being the basis vector over the tower with 1 at j and 0 at every
    other free column, so the basis, transposed, is the K-form of the
    matrix [v_1 ... v_f] over the tower: v_j is its j-th block of deg
    columns."""
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


def dm_diag(entries: list, tower: Tower = TRIVIAL_TOWER) -> DomainMatrix:
    """The K-form over the tower of the diagonal matrix of `entries`,
    elements of the tower."""
    n = len(entries)
    return regular_matrix([entries[i] if i == j else [] for i in range(n)
                           for j in range(n)], (n, n), _modulus(tower), QQ_XT)


def dm_to_matrix(D: DomainMatrix, tower: Tower = TRIVIAL_TOWER) -> sp.Matrix:
    """The matrix over the tower whose regular representation is D, with
    entries in the canonical form of treduce."""
    deg = tower.degree
    return sp.Matrix(D.shape[0] // deg, D.shape[1] // deg,
                     [element_expr(a) for a in from_regular(D, deg)])


def k_shift(e, j: int = 1):
    """sigma^j on an element of K.  x -> x + j is an automorphism of
    Z[x, t] that keeps the top coefficient in x, so a reduced fraction stays
    reduced with the same lex leading coefficient: no cancel is needed."""
    xj = _X + j
    return e.raw_new(e.numer.compose(_X, xj), e.denom.compose(_X, xj))


def dm_shift(D: DomainMatrix, j: int = 1) -> DomainMatrix:
    """sigma^j over K, or over Z[x, t]: x -> x + j in every entry."""
    if D.domain.is_PolynomialRing:
        return D.applyfunc(lambda p: p.compose(_X, _X + j))
    return D.applyfunc(lambda e: k_shift(e, j))


def dm_delta(D: DomainMatrix, tower: Tower = TRIVIAL_TOWER) -> DomainMatrix:
    """delta on a K-form over the tower: an entry sum_k a_k theta^k goes to
    sum_k (d/dt a_k) theta^k + a'(theta) delta(theta) mod m.  Over the
    trivial tower D may also be a matrix over Z[x, t]."""
    if tower.trivial:
        t_ = _T_RING if D.domain.is_PolynomialRing else _T
        return D.applyfunc(lambda e: e.diff(t_))
    mod, dtheta = _modulus(tower), list(tower.delta_theta)
    entries = [dup_add(dup_strip([c.diff(_T) for c in a]), dup_rem(dup_mul(
        dup_diff(a, 1, QQ_XT), dtheta, QQ_XT), mod, QQ_XT), QQ_XT)
        for a in from_regular(D, tower.degree)]
    return regular_matrix(entries, (D.shape[0] // tower.degree,
                                    D.shape[1] // tower.degree), mod, QQ_XT)


def dm_conjugate(D: DomainMatrix, conj, tower: Tower) -> DomainMatrix:
    """A K-form over the tower with theta replaced by conj, a root of the
    minimal polynomial in the tower (an element of it)."""
    mod = _modulus(tower)
    entries = [dup_rem(dup_compose(a, conj, QQ_XT), mod, QQ_XT)
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


def _lcm(polys):
    """The lcm in Z[x, t] of the distinct polynomials among `polys`, with
    positive leading coefficient (1 for none).  It keeps the integer
    content: the lcm of 9 and 12 is 36."""
    distinct = set(polys)
    q = distinct.pop() if distinct else _XT_RING_ONE
    for d in distinct:
        q = q.lcm(d)
    return -q if q.LC < 0 else q


def dm_clear(D: DomainMatrix):
    """(q, N) with D = N/q for a matrix D over K: q the lcm in Z[x, t] of
    the distinct denominators of the entries (:func:`_lcm`, integer
    content kept), N over Z[x, t] (``QQ_XT.get_ring()``).  One lcm and
    one exact quotient per distinct denominator, where
    ``DomainMatrix.clear_denoms`` takes an lcm per entry."""
    elems, data = D.to_flat_nz()
    dens = {c.denom for c in elems}
    q = _lcm(dens)
    quo = {d: q.exquo(d) for d in dens}
    return q, D.from_flat_nz([c.numer * quo[c.denom] for c in elems], data,
                             _QQ_XT_RING)


def _cleared_term(term):
    """(numerator, denominator) of a product of K-matrices and elements of
    K: the product of the cleared numerators over Z[x, t], in order, and
    the product of the denominators."""
    num, scale, den = None, _XT_RING_ONE, _XT_RING_ONE
    for f in term:
        if isinstance(f, DomainMatrix):
            q, N = dm_clear(f)
            num = N if num is None else num * N
        else:
            q = f.denom
            scale = scale * f.numer
        den = den * q
    return num * scale, den


def dm_same(lhs: list, rhs: list) -> bool:
    """Whether two sums of products of K-matrices and elements of K are
    equal.  A side is a list of terms, a term a tuple of factors
    multiplied left to right, at least one of them a K-matrix.  Each
    factor is cleared (:func:`dm_clear`), the numerators multiply over
    Z[x, t] with no gcd, and each term is scaled by lcm/den, the lcm
    taken over the denominators of all the terms, before the two sums are
    compared."""
    terms = [(_cleared_term(term), side) for side, ts in ((1, lhs), (-1, rhs))
             for term in ts]
    L = _lcm(den for (_, den), _ in terms)
    total = None
    for (num, den), side in terms:
        part = num * (L.exquo(den) * side)
        total = part if total is None else total + part
    return total.is_zero_matrix


def dm_delta_part(G: DomainMatrix, B: DomainMatrix,
                  dG: DomainMatrix) -> DomainMatrix:
    """G^-1 (B G - dG) over K (dG = delta(G) for the gauge's delta-part),
    formed fraction-free: with G = N/g, B G - dG = R/L over Z[x, t] and
    N^-1 = N'/e from one ``inv_den`` over Z[x, t], the result is
    g N' R / (e L), cancelled once per entry.  FieldError when G is
    singular."""
    g, N = dm_clear(G)
    b, M = dm_clear(B)
    d, P = dm_clear(dG)
    L = _lcm([b * g, d])
    R = M * N * L.exquo(b * g) - P * L.exquo(d)
    try:
        Ninv, e = N.inv_den()
    except DMNonInvertibleMatrixError:
        raise FieldError("matrix not invertible")
    X = Ninv * R
    elems, data = X.to_flat_nz()
    den = e * L
    return X.from_flat_nz([QQ_XT.field.new(p * g, den) for p in elems], data,
                          QQ_XT)


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
    A = N/a, N over Z[x, t] and a in Z[x, t] (one :func:`dm_clear`),
    A_m = sigma^{m-1}(N) ... N / (sigma^{m-1}(a) ... a).  The shifted
    numerators multiply over Z[x, t] with no gcd, and each entry of the
    product is divided by the product of the shifted denominators once,
    where m - 1 products over K would cancel every entry of each."""
    if m < 1:
        raise ValueError("m >= 1 required")
    if m == 1:
        return D
    a, N = dm_clear(D)
    num, den = N, a
    for j in range(1, m):
        num = dm_shift(N, j) * num
        den = den * a.compose(_X, _X + j)
    elems, data = num.to_flat_nz()
    return D.from_flat_nz([QQ_XT.field.new(p, den) for p in elems], data,
                          QQ_XT)
