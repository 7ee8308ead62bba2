"""Exact arithmetic for the coefficient tower Q < Q(t) < Q(t)[theta]/(m(theta)).

Field elements and matrices are held as K-forms (below) inside the
procedures and the report; :mod:`ddsolve.parsing` evaluates the entries
of system and solution files straight into them and prints them back.
Sympy expressions in the global symbols x, t, theta are the form of the
expression API (:func:`treduce`, the sympy matrices of a system or a
solution and the sympy values of the report, formed when read, the
recurrence coefficients of ``petkovsek``).  They enter K
through one walker, :func:`expr_value`, in :class:`Fractions` (Q(x, t),
Q(x, t, theta)) or :class:`TowerArithmetic` (K[theta]/(m)): it reads
rationals and x, t, theta under +, * and integer powers, and a Float or
any other node raises :class:`FieldError`, never approximated.  A
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
zero (mod m on a tower) raises ZeroDivisionError.

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

Every product in K[theta]/(m) is reduced by one theta-power table per
tower (:meth:`Tower.reduce`): theta^j mod m for j >= deg m, formed once
and extended when a higher power is needed, so a reduction is a sum of
coefficient times row, with no polynomial division over K.  The columns
of :func:`regular_matrix` (entry * theta^k), :func:`dm_delta`,
:func:`dm_conjugate` and :meth:`TowerArithmetic.mul` all reduce this way.

Exact identities between K-matrices are decided fraction-free, so that no
gcd runs inside a matrix product (E. H. Bareiss, Math. Comp. 22, 1968;
Geddes, Czapor and Labahn, *Algorithms for Computer Algebra*, 1992,
ch. 9).  :func:`dm_clear` writes D = N/q, q the lcm over Z[x, t] of the
distinct denominators and N over Z[x, t].  :class:`Cleared` carries that
form with the gcd g of N's entries; scaling it by an element of K takes
two gcds per matrix and gives the dm_clear of the product over K
exactly (:meth:`Cleared.scale`), so the rational solves of ``ratsol``
scale the cleared A_m and A_m^-1 of a system, formed once
(:func:`dm_cleared`), where the product over K would cancel every entry.
:func:`dm_same` compares two sums of products of K-matrices, pairs
(q, N) and elements of K: it multiplies the cleared numerators over
Z[x, t] and scales each term by lcm/den.  The certificate identities,
the gauge identities, the substitution checks and the integrability test
all go through it.  A delta that only enters it is formed on the
trivial tower as the pair (q^2, q delta(N) - delta(q) N), with no cancel
(:func:`dm_delta_clear`).  :func:`dm_inv` inverts with one ``inv_den``
over Z[x, t] on the cleared numerator and one cancel per entry, and so
does :func:`dm_delta_part`, which forms a gauge's delta-part
G^-1 (B G - delta(G)) from G, B and their tower: it takes delta(G)
itself, so no caller forms it.  The cocycle (:func:`dm_sigma_power`)
multiplies cleared numerators too.

A full rank is decided at a point first (S. Cabay, SYMSAC 1971; von zur
Gathen and Gerhard, *Modern Computer Algebra*, ch. 5).
:func:`point_rank` evaluates a matrix over K, Q(t) or Z[v, ...] at one
fixed point mod one fixed word-size prime (``_POINT`` and ``_PRIME``,
constants, not options).  Each minor of the value is the value of the
same minor, so the rank there is at most the rank over the field: a full
rank at the point proves a full rank, and a nonzero determinant there a
nonzero determinant.  A rank drop at the point proves nothing, and
:func:`has_rank` then takes the exact rank, so every answer is the exact
one.  The gauge selection, the specialization point, the choice of
hyperexponential candidates, Moser's shearing test and the constant-span
test ask :func:`has_rank`; ``ratsol.degree_bound`` asks
:func:`point_rank` of a leading matrix over Z[k, t] and decides a drop by
the exact null space.

:func:`common_integer_roots` is the one integer-root routine (the
degree bounds of every polynomial ansatz, Hyper's included, and the pole
scans of the lift and the numeric window): Hensel lifting of the roots
mod a small prime, with no polynomial factored, so its cost follows the
bit size of the input.
The objects a system derives from A are formed once on
``procedures.DDSystem``, not here: det A of its K-form, the inverse
A_m^-1 of each cocycle (:func:`dm_inv`), and the cleared forms of A_m
and A_m^-1, from which a rational solve reads (A_m/r)^-1 as r A_m^-1
(:func:`dm_diag` forms r I_n over a tower).

An x-free K-matrix is read over Q(t) = ``QQ_T`` by :func:`dm_over_qt`,
and :func:`charpoly_factors` factors its characteristic polynomial
there, once, for the eigenvalues of ``closedform``'s delta-side and
``moser``'s classification.  A null space over the tower is
:func:`kernel` of the K-form, whose basis is the K-form of one over the
tower.  An element of a tower is a dense list over K (highest power of
theta first, reduced mod m), and :func:`dm_diag` forms the K-form of a
diagonal matrix of them; :func:`element_expr` and :func:`dm_to_matrix`
form the expressions of the expression API, and :func:`treduce` serves
its parsing and printing.  :func:`k_shift` is sigma
on K.  :func:`mat_inv`, :func:`sigma_power_matrix`, :func:`factor_in_x`
and :func:`series_at_infinity` have no caller in the package
(``difftools`` works on K and Z[x, t]); they stay for ``ddsolve``'s
exports, the tests and the benchmark tracer (``ddbench/tracer.py``),
which names them.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from math import isqrt
from typing import NamedTuple, Optional

import sympy as sp
from sympy import GF, QQ, ZZ, nextprime
from sympy.polys.densearith import (dup_add, dup_lshift, dup_mul,
                                    dup_mul_ground, dup_neg)
from sympy.polys.densebasic import dup_from_raw_dict, dup_strip
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
    "expr_value", "treduce", "element_expr",
    "series_at_infinity", "factor_in_x", "charpoly_factors", "dm_over_qt",
    "AllEqual", "Split", "Conjugate", "MixedSplit",
    "mat_inv", "point_rank", "has_rank",
    "kernel", "regular_matrix", "from_regular",
    "regular_rows", "theta_coords", "from_theta_coords",
    "common_integer_roots", "x_integer_roots", "t_value", "dense_fraction",
    "sigma_power_matrix",
    "dm_from_matrix", "dm_to_matrix", "dm_diag", "k_shift",
    "dm_shift", "dm_shift_clear", "dm_delta", "dm_inv", "dm_embed",
    "dm_conjugate",
    "dm_sigma_power", "dm_clear", "Cleared", "dm_cleared", "dm_delta_clear",
    "dm_same", "dm_delta_part", "cleared_pair",
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
    are formed on first read, and so is the table of theta powers through
    which :meth:`reduce` reduces mod m."""

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

    @functools.cached_property
    def _theta_powers(self) -> list:
        """[theta^deg mod m, theta^(deg+1) mod m, ...] (deg = deg m) as
        dense lists over K: theta^deg = -(m_1 theta^(deg-1) + ... + m_deg)
        once per tower, extended by :meth:`reduce` when a longer
        polynomial needs a higher power."""
        return [dup_strip([-c for c in self.modulus[1:]])]

    def reduce(self, a: list) -> list:
        """a mod m for a dense polynomial a in theta over K, highest degree
        first: the part of degree below deg m plus each coefficient of a
        power theta^j, j >= deg m, times the reduced theta^j.  No division
        and no polynomial remainder over K."""
        n = len(a) - self.degree
        if n <= 0:
            return a
        rows = self._theta_powers
        while len(rows) < n:
            rows.append(self.reduce(dup_lshift(rows[-1], 1, QQ_XT)))
        out = dup_strip(a[n:])
        for c, row in zip(a, reversed(rows[:n])):
            out = dup_add(out, dup_mul_ground(row, c, QQ_XT), QQ_XT)
        return out


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
    if len(mod) == 1:
        raise FieldError("minimal polynomial must have positive degree")
    if len(mod) == 2:
        # theta is rational: Y - r; the tower is trivial
        return TRIVIAL_TOWER
    if not _irreducible(mod):
        raise FieldError("minimal polynomial is reducible over Q(t)")
    mdt = dup_strip([c.diff(_T) for c in mod])
    tower = Tower(tuple(mod), (), len(mod) - 1)
    dtheta = tower.reduce(dup_mul(dup_neg(mdt, QQ_XT), dup_invert(
        dup_diff(mod, 1, QQ_XT), mod, QQ_XT), QQ_XT))
    return dataclasses.replace(tower, delta_theta=tuple(dtheta))


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


def make_tower(minpoly: sp.Expr) -> Tower:
    """:func:`tower_from_modulus` of a sympy polynomial in theta over
    Q(t)."""
    return tower_from_modulus(theta_poly(_field_element(_QQ_XTTH, minpoly)))


def treduce(f, tower: Tower = TRIVIAL_TOWER):
    """Canonical form of a tower-valued rational function of x.

    On the trivial tower f is evaluated in Q(x, t, theta), theta an
    indeterminate; on a tower, in K[theta]/(m).  The result is read back
    from the reduced field element (see the module docstring).  FieldError
    for input outside the field, ZeroDivisionError for a denominator that
    is zero in the tower."""
    if tower.trivial:
        return _frac_expr(_field_element(_QQ_XTTH, f))
    return element_expr(_tower_element(f, tower))


def _field_element(field, e):
    """e as an element of the rational function field `field`, evaluated
    by :class:`Fractions` with one cancel at the end."""
    ar = Fractions(field)
    return ar.element(expr_value(e, ar))


def expr_value(e, ar):
    """The value in the arithmetic ar (:class:`Fractions` or
    :class:`TowerArithmetic`) of the sympy expression e: rationals and
    ar's symbols under +, * and integer powers, bottom up.  FieldError
    for any other node, a Float included, and for input sympify does not
    read; ZeroDivisionError for a zero denominator."""
    def walk(e):
        if e.is_Rational:
            a = ar.integer(e.p)
            return a if e.q == 1 else ar.mul(a, ar.inv(ar.integer(e.q)))
        if e.is_Symbol and e in ar.symbols:
            return ar.var(e.name)
        if e.is_Add or e.is_Mul:
            return functools.reduce(ar.add if e.is_Add else ar.mul,
                                    map(walk, e.args))
        if e.is_Pow and e.exp.is_Integer:
            return ar.pow(walk(e.base), int(e.exp))
        raise CoercionFailed(e)

    try:
        return walk(sp.sympify(e))
    except (CoercionFailed, sp.SympifyError):
        raise FieldError(f"entry not in {ar.name}: {e}")


class Fractions:
    """A field of rational functions over Q (Q(x, t), or Q(x, t, theta)
    with theta an indeterminate) as pairs (num, den) over its polynomial
    ring: no gcd on the way, :meth:`element` cancels once.  It evaluates
    sympy expressions (:func:`expr_value`) and the parsed entries of
    :mod:`ddsolve.parsing`."""

    def __init__(self, field):
        self.field, self.symbols = field.field, field.symbols
        self.ring = self.field.ring
        self.gens = dict(zip(map(str, self.symbols), self.ring.gens))
        self.name = f"Q({', '.join(self.gens)})"

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
        return dup_strip([_field_element(QQ_XT, e)])
    return expr_value(e, TowerArithmetic(tower))


class TowerArithmetic:
    """K[theta]/(m) for a nontrivial tower: its elements are dense lists
    over K = Q(x, t), highest degree first, reduced mod m.  It evaluates
    sympy expressions (:func:`expr_value`) and the parsed entries of
    :mod:`ddsolve.parsing`, and forms DP1's ratios over a tower."""

    symbols, name = (x, t, theta), "Q(x, t)(theta)"

    def __init__(self, tower: Tower):
        self.tower, self.mod = tower, _modulus(tower)

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
        return self.tower.reduce(dup_mul(a, b, QQ_XT))

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


def _low_degree_roots(g: list) -> list:
    """The integer roots of g over Z of degree 1 or 2, in closed form:
    -c/b for b x + c, and (-b +- s)/(2a) for a x^2 + b x + c when the
    discriminant is a square s^2."""
    if len(g) == 2:
        b, c = g
        return [] if c % b else [-c // b]
    a, b, c = g
    disc = b * b - 4 * a * c
    s = isqrt(disc) if disc >= 0 else -1
    return ([] if s * s != disc else
            [r // (2 * a) for r in {-b + s, -b - s} if not r % (2 * a)])


def common_integer_roots(slices: list) -> list:
    """Sorted integers that are roots of every nonzero dense polynomial
    over Q (or Z) in `slices`, found with no factoring.  The candidates
    are the integer roots of the first, cleared to a primitive polynomial
    f over Z (the slices of a determinant over Z[k, t] by the monomials
    in t, :func:`x_integer_roots`, or one denominator specialized at t0):
    0 when x divides f, and the roots of g = f / x^k, in closed form when
    g has degree 1 or 2 (:func:`_low_degree_roots`), else those of the
    square-free part h of g, found p-adically.  For the least prime p
    that keeps h's degree and square-freeness mod p, each root of h mod p
    is simple and Newton (Hensel) lifting carries it to p^(2^j) > 2 B, B
    the Cauchy bound 1 + max |h_i| / |h_n| on the roots of h; its
    symmetric residue is the one integer in [-B, B] it can be, kept when
    h vanishes there.  The cost grows with the degree and bit size of f,
    not with the size of its roots or coefficients."""
    f = dup_primitive(dup_clear_denoms(slices[0], QQ, convert=True)[1],
                      ZZ)[1]
    g = dup_strip(f[::-1])[::-1]            # f / x^k
    roots = [0] if len(g) < len(f) else []
    if len(g) in (2, 3):
        roots += _low_degree_roots(g)
    elif len(g) > 3:
        h = dup_sqf_part(g, ZZ)
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


# the point and the prime of every rank test at a point: the i-th
# generator of a ring (x, t of K; k, t of the degree bound's rows) takes
# the value _POINT[i], mod _PRIME
_PRIME = 2**31 - 1
_POINT = (1_234_577, 7_654_337)
_GF = GF(_PRIME)


def _point_value(p) -> int:
    """The value at _POINT mod _PRIME of a polynomial p over Z."""
    point, value = _POINT[:p.ring.ngens], 0
    for m, c in p.items():
        for v, e in zip(point, m, strict=True):
            c = c * pow(v, e, _PRIME) % _PRIME
        value += c
    return value % _PRIME


def point_rank(M: DomainMatrix) -> int:
    """The rank mod _PRIME of the value at _POINT of M, a matrix over a
    field of fractions of Z[v, ...] (K, Q(t)) or over Z[v, ...] itself;
    0 when a denominator vanishes there.  It is at most rank M: each
    minor of the value is the value of the same minor of M."""
    entries = M.to_list_flat()
    if M.domain.is_FractionField:
        dens = [_point_value(e.denom) for e in entries]
        if not all(dens):
            return 0
        vals = [_point_value(e.numer) * pow(d, -1, _PRIME)
                for e, d in zip(entries, dens)]
    else:
        vals = list(map(_point_value, entries))
    return DomainMatrix.from_list_flat(list(map(_GF, vals)), M.shape,
                                       _GF).rank()


def has_rank(M: DomainMatrix, r: int) -> bool:
    """Whether rank M >= r, for M as in :func:`point_rank`: True when the
    value at the point has rank r, which proves it; otherwise the exact
    rank decides."""
    return point_rank(M) >= r or M.rank() >= r


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


def regular_matrix(entries: list, shape: tuple,
                   tower: Tower = TRIVIAL_TOWER) -> DomainMatrix:
    """The K-matrix of the regular representation of a matrix over the
    tower L = K[theta]/(m), or over K itself for the trivial tower.

    `entries` lists the matrix row-major as dense polynomials in theta
    over K, highest degree first, reduced mod m (layout in
    :func:`regular_rows`); entry * theta^k is reduced through the tower's
    theta powers (:meth:`Tower.reduce`).  The map is a ring homomorphism,
    so products, inverses and solves over L are those of the K-matrices;
    :func:`from_regular` reads the result back."""
    deg = tower.degree

    def times_theta(a, k):
        return tower.reduce(dup_lshift(a, k, QQ_XT)) if k else a

    rows = regular_rows(entries, shape, deg, times_theta, QQ_XT.zero)
    return DomainMatrix(rows, (shape[0] * deg, shape[1] * deg), QQ_XT)


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
                          tower)


def dm_diag(entries: list, tower: Tower = TRIVIAL_TOWER) -> DomainMatrix:
    """The K-form over the tower of the diagonal matrix of `entries`,
    elements of the tower."""
    n = len(entries)
    return regular_matrix([entries[i] if i == j else [] for i in range(n)
                           for j in range(n)], (n, n), tower)


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


def dm_shift_clear(C, j: int = 1) -> tuple:
    """sigma^j of a K-matrix given by a pair (q, N) of :func:`dm_clear`
    (or :class:`Cleared`), as the pair (sigma^j(q), sigma^j(N)): the
    dm_clear of the shifted matrix, with no lcm, since x -> x + j maps the
    lcm of the denominators to the lcm of the shifted ones and keeps its
    leading coefficient."""
    q, N = C[:2]
    return q.compose(_X, _X + j), dm_shift(N, j)


def dm_delta(D: DomainMatrix, tower: Tower = TRIVIAL_TOWER) -> DomainMatrix:
    """delta on a K-form over the tower: an entry sum_k a_k theta^k goes to
    sum_k (d/dt a_k) theta^k + a'(theta) delta(theta) mod m.  Over the
    trivial tower D may also be a matrix over Z[x, t]."""
    if tower.trivial:
        t_ = _T_RING if D.domain.is_PolynomialRing else _T
        return D.applyfunc(lambda e: e.diff(t_))
    dtheta, deg = list(tower.delta_theta), tower.degree
    entries = [dup_add(dup_strip([c.diff(_T) for c in a]), tower.reduce(
        dup_mul(dup_diff(a, 1, QQ_XT), dtheta, QQ_XT)), QQ_XT)
        for a in from_regular(D, deg)]
    return regular_matrix(entries, (D.shape[0] // deg, D.shape[1] // deg),
                          tower)


def dm_conjugate(D: DomainMatrix, conj, tower: Tower) -> DomainMatrix:
    """A K-form over the tower with theta replaced by conj, a root of the
    minimal polynomial in the tower (an element of it)."""
    deg = tower.degree
    entries = [tower.reduce(dup_compose(a, conj, QQ_XT))
               for a in from_regular(D, deg)]
    return regular_matrix(entries, (D.shape[0] // deg, D.shape[1] // deg),
                          tower)


def dm_embed(D, tower: Tower):
    """The K-form over the tower of a matrix D over K: entry a becomes
    the block a I_e, e the tower's degree, since a theta^k = a theta^k is
    reduced (the layout of :func:`regular_rows`).  D may also be a pair
    (q, N) of :func:`dm_clear` (or :class:`Cleared`); its embedding is
    the pair (q, N embedded), the dm_clear of the embedded K-form."""
    if not isinstance(D, DomainMatrix):
        q, N = D[:2]
        return q, dm_embed(N, tower)
    e, zero = tower.degree, D.domain.zero
    rows = [[a if k == j else zero for a in row for j in range(e)]
            for row in D.to_list() for k in range(e)]
    return DomainMatrix(rows, (D.shape[0] * e, D.shape[1] * e), D.domain)


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


def cleared_pair(D) -> tuple:
    """(q, N) of :func:`dm_clear` for a K-matrix D; a pair (q, N) or a
    :class:`Cleared` is taken as it stands, so a caller that keeps a
    matrix's cleared form passes it in place of the matrix."""
    return dm_clear(D) if isinstance(D, DomainMatrix) else D[:2]


class Cleared(NamedTuple):
    """A K-matrix D as N/q in the form of :func:`dm_clear`, carried with g,
    a gcd of the entries of N (0 for N = 0).  gcd(q, g) = 1: a prime
    power p^k that divides q divides some reduced denominator d exactly,
    and the entry c.numer * q/d of N is then prime to p.  It is a factor
    of :func:`dm_same` as it stands."""
    q: PolyElement
    N: DomainMatrix
    g: PolyElement

    def scale(self, a, b) -> Cleared:
        """The cleared form of D a/b, a/b a reduced fraction over Z[x, t]
        (b != 0), from two gcds and no cancel per entry.  With
        g1 = gcd(q, a) and g2 = gcd(b, g), D a/b = N'/q' for
        q' = (q/g1)(b/g2) and N' = N (a/g1)/g2, whose entries have the gcd
        g' = (g/g2)(a/g1).  q' is prime to g': q/g1 is prime to a/g1 and,
        dividing q, to g; b/g2 is prime to a and to g/g2.  So q' is the lcm
        of the reduced denominators, and (q', N') is dm_clear(D a/b) once
        its sign is that of :func:`_lcm`."""
        if not a:
            return Cleared(_XT_RING_ONE, self.N.mul(a), a)
        g1, q1, a1 = self.q.cofactors(a)
        g2, b2, g_rest = b.cofactors(self.g)
        q, g = q1 * b2, g_rest * a1
        elems, data = self.N.to_flat_nz()
        if g2 != 1:
            elems = [p.exquo(g2) for p in elems]
        if a1 != 1:
            elems = [p * a1 for p in elems]
        if q.LC < 0:
            q, g, elems = -q, -g, [-p for p in elems]
        return Cleared(q, self.N.from_flat_nz(elems, data, _QQ_XT_RING), g)


def dm_cleared(D) -> Cleared:
    """The :class:`Cleared` form of the K-matrix D, or of its pair (q, N)
    (:func:`cleared_pair`): the gcd of the entries of N joins (q, N),
    taken entry by entry until it is a unit."""
    q, N = cleared_pair(D)
    g = _K_RING.zero
    for p in N.to_flat_nz()[0]:
        g = g.gcd(p)
        if g == 1 or g == -1:
            break
    return Cleared(q, N, g)


def _cancelled(X: DomainMatrix, c, den) -> DomainMatrix:
    """The K-matrix c X / den, X over Z[x, t] and c, den in Z[x, t]: one
    cancel per nonzero entry."""
    elems, data = X.to_flat_nz()
    return X.from_flat_nz([QQ_XT.field.new(p * c, den) for p in elems], data,
                          QQ_XT)


def _inverse_den(N: DomainMatrix):
    """(N', e) with N^-1 = N'/e for N square over Z[x, t], from one
    fraction-free elimination (``inv_den``); FieldError when N is
    singular."""
    try:
        return N.inv_den()
    except DMNonInvertibleMatrixError:
        raise FieldError("matrix not invertible")


def dm_inv(D) -> DomainMatrix:
    """D^-1 for a square K-matrix D, or its pair (q, N)
    (:func:`cleared_pair`); FieldError when D is singular.  With
    D = N/q and N^-1 = N'/e from one ``inv_den`` over Z[x, t],
    D^-1 = q N'/e, cancelled once per entry."""
    q, N = cleared_pair(D)
    Ninv, e = _inverse_den(N)
    return _cancelled(Ninv, q, e)


def dm_delta_clear(D, tower: Tower = TRIVIAL_TOWER):
    """delta(D) as a pair (d, P), delta(D) = P/d with P over Z[x, t]: a
    factor of :func:`dm_same`.  D is a K-form over the tower or, on the
    trivial tower, a pair (q, N) of :func:`dm_clear`.  There
    delta(N/q) = (q delta(N) - delta(q) N)/q^2 with no cancel, so d = q^2
    is a common denominator, not the lcm.  On a tower delta mixes the
    coordinates of theta, and the pair is dm_clear(dm_delta(D, tower))."""
    if not tower.trivial:
        return dm_clear(dm_delta(D, tower))
    q, N = cleared_pair(D)
    return q**2, dm_delta(N).mul(q) - N.mul(q.diff(_T_RING))


def _cleared_term(term):
    """(numerator, denominator) of a product of K-matrices, pairs (q, N)
    standing for N/q and elements of K: the product of the cleared
    numerators over Z[x, t], in order, and the product of the
    denominators."""
    num, scale, den = None, _XT_RING_ONE, _XT_RING_ONE
    for f in term:
        if isinstance(f, (DomainMatrix, tuple)):
            q, N = cleared_pair(f)
            num = N if num is None else num * N
        else:
            q = f.denom
            scale = scale * f.numer
        den = den * q
    return num * scale, den


def dm_same(lhs: list, rhs: list) -> bool:
    """Whether two sums of products of K-matrices and elements of K are
    equal.  A side is a list of terms, a term a tuple of factors
    multiplied left to right, at least one of them a K-matrix or a pair
    (q, N) over Z[x, t] standing for N/q (:func:`dm_clear`,
    :class:`Cleared`, :func:`dm_delta_clear`).  Each K-matrix factor is
    cleared (:func:`dm_clear`), the numerators multiply over
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


def dm_delta_part(G: DomainMatrix, B, tower: Tower) -> DomainMatrix:
    """The gauge's delta-part G^-1 (B G - delta(G)) on K-forms over the
    tower, B given as its K-form or its pair (:func:`cleared_pair`),
    formed fraction-free: with G = N/g, B = M/b, delta(G) = P/d
    (:func:`dm_delta_clear`), B G - delta(G) = R/L over Z[x, t] and
    N^-1 = N'/e from one ``inv_den`` over Z[x, t], the result is
    g N' R / (e L), cancelled once per entry.  FieldError when G is
    singular."""
    g, N = dm_clear(G)
    b, M = cleared_pair(B)
    d, P = dm_delta_clear((g, N) if tower.trivial else G, tower)
    L = _lcm([b * g, d])
    R = M * N * L.exquo(b * g) - P * L.exquo(d)
    Ninv, e = _inverse_den(N)
    return _cancelled(Ninv * R, g, e * L)


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
    return _cancelled(num, _XT_RING_ONE, den)
