"""Sequence semantics: interlacing, sections, recurrence-generated
sequences, lifting sigma^d-solutions to sigma-solutions, and exact
verification of solution certificates.

Transcendental prefactors (Gamma-products, t^x, exp-integrals) are never
evaluated: a solution is carried as a rational vector part plus a
certificate pair (sigma-ratio, delta-ratio), so every check below is a
rational identity or exact evaluation over Q (possibly extended by the
tower generator with t specialized).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Optional

import sympy as sp
from sympy import QQ
from sympy.polys.densearith import (dup_add, dup_mul, dup_mul_ground, dup_rem,
                                    dup_sub)
from sympy.polys.densebasic import dup_strip
from sympy.polys.euclidtools import dup_invert
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from .fields import (TRIVIAL_TOWER, FieldError, Tower, dm_from_matrix,
                     mat_delta, mat_shift, sigma_power_matrix, t, theta,
                     treduce, x)

__all__ = ["Seq", "FuncSeq", "SeqVec", "interlace", "section",
           "seq_from_recurrence", "lift_sigma_d_to_sigma",
           "HypCert", "LiouvilleSolution", "VerifyResult",
           "verify_certificates", "verify_numeric_window",
           "first_safe_index", "PoleError", "PointEvaluator",
           "VerificationError"]


class PoleError(Exception):
    """Evaluation hit a pole; .index carries the offending integer."""

    def __init__(self, message, index):
        super().__init__(f"{message} at index {index}")
        self.index = index


class VerificationError(AssertionError):
    """An exact check of a solution failed.  Raised explicitly, so the
    check survives ``python -O``."""


# ---------------------------------------------------------------------------
# evaluation at integer points

class PointEvaluator:
    """Evaluation of matrices over Q(x, t)(theta) at integer x.

    Arithmetic is over a ground field K: QQ when t is specialized to t0,
    QQ.frac_field(t) otherwise.  A tower element is a dense list of
    coefficients in theta over K (highest first, [] for zero), reduced mod
    the minimal polynomial, specialized at t0 when t0 is given; over the
    trivial tower it has at most one coefficient.  :meth:`compile` cancels
    each entry once into dense (num, den) polynomials in x with tower
    coefficients, and :meth:`at` evaluates them by Horner's rule.
    """

    def __init__(self, tower: Tower = TRIVIAL_TOWER, t0=None):
        self.t0 = t0
        self.K = QQ.frac_field(t) if t0 is None else QQ
        self.degree = tower.degree
        self.mod = None
        if not tower.trivial:
            mp = tower.minpoly if t0 is None else tower.minpoly.subs(t, t0)
            P = sp.Poly(mp, theta, domain=self.K)
            if t0 is not None and not P.is_irreducible:
                raise FieldError(
                    f"minimal polynomial is reducible at t = {t0}")
            self.mod = P.rep.to_list()

    # tower arithmetic
    def reduce(self, a: list) -> list:
        return a if self.mod is None else dup_rem(a, self.mod, self.K)

    def mul(self, a: list, b: list) -> list:
        return self.reduce(dup_mul(a, b, self.K))

    def sub(self, a: list, b: list) -> list:
        return dup_sub(a, b, self.K)

    def inv(self, a: list) -> list:
        if self.mod is None:
            return [self.K.quo(self.K.one, a[0])]
        return dup_invert(a, self.mod, self.K)

    def matvec(self, M: list, v: list) -> list:
        """M v for M a flat row-major list of len(M) // len(v) rows."""
        n, K = len(v), self.K
        out = []
        for i in range(0, len(M), n):
            acc = []
            for a, b in zip(M[i:i + n], v):
                acc = dup_add(acc, dup_mul(a, b, K), K)
            out.append(self.reduce(acc))
        return out

    def solve(self, M: list, b: list) -> list:
        """v with M v = b for a flat row-major square M, by LU over K.

        The tower is written as K^degree: multiplication by an element a
        is the K-linear map whose column c is the coordinate vector of
        a * theta^(degree-1-c)."""
        K, deg, n = self.K, self.degree, len(b)

        def coords(a):
            return [K.zero] * (deg - len(a)) + a

        rows = [[] for _ in range(n * deg)]
        for i in range(n):
            for k in range(n):
                cols = [coords(self.mul(M[i * n + k],
                                        [K.one] + [K.zero] * (deg - 1 - c)))
                        for c in range(deg)]
                for r in range(deg):
                    rows[i * deg + r].extend(col[r] for col in cols)
        rhs = DomainMatrix([[c] for a in b for c in coords(a)],
                           (n * deg, 1), K)
        try:
            sol = DomainMatrix(rows, (n * deg, n * deg), K).lu_solve(rhs)
        except DMNonInvertibleMatrixError:
            raise FieldError("matrix not invertible")
        flat = sol.to_list_flat()
        return [dup_strip(flat[i * deg:(i + 1) * deg]) for i in range(n)]

    def to_sympy(self, a: list) -> sp.Expr:
        return sp.Add(*(self.K.to_sympy(c) * theta**k
                        for k, c in enumerate(reversed(a))))

    # compiled matrices
    def compile(self, M) -> list:
        """Entries of M (row-major) as (num, den) pairs of dense
        polynomials in x, highest degree first, with tower coefficients."""
        return [tuple(self._xpoly(p)
                      for p in sp.fraction(sp.together(sp.cancel(e))))
                for e in M]

    def _xpoly(self, p) -> list:
        if self.t0 is not None:
            p = p.subs(t, self.t0)
        coeffs = sp.Poly(p, x, theta, domain=self.K).rep.to_list()
        return dup_strip([self.reduce(c) for c in coeffs])

    def xpoly_to_sympy(self, p: list) -> sp.Expr:
        return sp.Add(*(self.to_sympy(c) * x**k
                        for k, c in enumerate(reversed(p))))

    def at(self, compiled: list, j: int) -> list:
        """Values of compiled entries at x = j; PoleError where a
        denominator is zero in the tower."""
        K, jj = self.K, self.K(j)

        def horner(p):
            acc = []
            for c in p:
                acc = dup_add(dup_mul_ground(acc, jj, K), c, K)
            return acc

        out = []
        for num, den in compiled:
            d = horner(den)
            if not d:
                raise PoleError("denominator vanishes", j)
            nv = horner(num)
            out.append(self.mul(nv, self.inv(d)) if nv else [])
        return out


# ---------------------------------------------------------------------------
# sequences

class Seq:
    """A sequence j -> value; subclasses implement value(j)."""

    def value(self, j: int):
        raise NotImplementedError


class FuncSeq(Seq):
    def __init__(self, fn: Callable[[int], object]):
        self.fn = fn

    def value(self, j: int):
        return self.fn(j)


class SeqVec(Seq):
    """Vector sequence generated by W(j+1) = A(j) W(j) from W(N) = base.

    Values below the start index are zero (the lift construction only
    constrains a sequence from some index on).  Steps run in the ground
    arithmetic of a :class:`PointEvaluator` (over Q when t is specialized
    to t0) and are cached; a single SeqVec is not safe for concurrent
    mutation.
    """

    def __init__(self, A: sp.Matrix, N: int, base: sp.Matrix,
                 t0: Optional[sp.Rational] = None,
                 tower: Tower = TRIVIAL_TOWER):
        self.A = A
        self.N = N
        self.points = PointEvaluator(tower, t0)
        self.compiled = self.points.compile(A)
        self._cache = [self.points.at(self.points.compile(base), N)]

    def point(self, j: int) -> list:
        """W(j) as a list of tower elements of :attr:`points`."""
        if j < self.N:
            return [[] for _ in self._cache[0]]
        k = j - self.N
        while len(self._cache) <= k:
            jj = self.N + len(self._cache) - 1
            Aj = self.points.at(self.compiled, jj)
            self._cache.append(self.points.matvec(Aj, self._cache[-1]))
        return self._cache[k]

    def value(self, j: int) -> sp.Matrix:
        return sp.Matrix([self.points.to_sympy(a) for a in self.point(j)])


def interlace(seqs: list) -> Seq:
    """b with b(d*n + i) = seqs[i](n)."""
    d = len(seqs)
    if d < 1:
        raise ValueError("need at least one sequence")

    def fn(j):
        n, i = divmod(j, d)
        return seqs[i].value(n)

    return FuncSeq(fn)


def section(seq: Seq, d: int, i: int) -> Seq:
    """Keep the residue class j = i mod d, zero elsewhere."""
    if not 0 <= i < d:
        raise ValueError("0 <= i < d required")

    def fn(j):
        v = seq.value(j)
        return v if j % d == i else v * 0

    return FuncSeq(fn)


def first_safe_index(A: sp.Matrix, B: sp.Matrix, V: sp.Matrix,
                     tower: Tower = TRIVIAL_TOWER) -> int:
    """Least N >= 1 with A(j), B(j) defined, det A(j) != 0 for all j >= N,
    V defined at N and V(N) != 0.

    Found by scanning the integer roots (in x) of every denominator and of
    the determinant numerator; t and theta stay symbolic, so a root must be
    a genuine rational-integer root of a coefficient-wise zero polynomial.
    The scan of A and B is done once per system.
    """
    dens = [sp.fraction(sp.together(sp.cancel(e)))[1] for e in V]
    bad = max([_system_pole_bound(sp.ImmutableMatrix(A),
                                  sp.ImmutableMatrix(B))]
              + [_max_integer_x_root(d) for d in dens])
    N = max(1, bad + 1)
    while all(treduce(v.subs(x, N), tower) == 0 for v in V):
        N += 1
    return N


@functools.lru_cache(maxsize=8)
def _system_pole_bound(A: sp.ImmutableMatrix, B: sp.ImmutableMatrix) -> int:
    """max(0, largest integer root in x) of the denominators of A and B and
    of the numerator and denominator of det A, all over K = Q(x, t)."""
    DA, DB = dm_from_matrix(A), dm_from_matrix(B)
    detA = DA.det()
    polys = ([e.denom for e in DA.to_list_flat() + DB.to_list_flat()]
             + [detA.numer, detA.denom])
    return max(_max_integer_x_root(p.as_expr()) for p in polys)


def _max_integer_x_root(p) -> int:
    """max(0, largest integer root in x of p)."""
    p = sp.expand(p)
    if x not in p.free_symbols:
        return 0
    return max([0] + _integer_x_roots(p))


def _integer_x_roots(p):
    """Integer roots in x of a polynomial whose coefficients may contain t
    or theta: x0 counts only if every (t, theta)-coefficient slice of p
    vanishes at x0; candidates come from one nonzero slice."""
    gens = tuple(sorted((s for s in p.free_symbols if s != x), key=str))
    if not gens:
        return sorted(int(r) for r in sp.Poly(p, x).ground_roots()
                      if sp.sympify(r).is_Integer)
    Pall = sp.Poly(sp.expand(p), x, *gens)
    groups: dict = {}
    for mono, coeff in zip(Pall.monoms(), Pall.coeffs()):
        key = mono[1:]
        groups[key] = groups.get(key, sp.Integer(0)) + coeff * x ** mono[0]
    first = next(g for g in groups.values() if g != 0)
    cand = set()
    if x not in first.free_symbols:
        return []
    for r in sp.Poly(first, x).ground_roots():
        if sp.sympify(r).is_Integer and all(
                sp.expand(g.subs(x, r)) == 0 for g in groups.values()):
            cand.add(int(r))
    return sorted(cand)


def seq_from_recurrence(A: sp.Matrix, N: int, V_N: sp.Matrix,
                        t0=None, tower: Tower = TRIVIAL_TOWER) -> SeqVec:
    """SeqVec with W(N) = V_N and W(j+1) = A(j) W(j)."""
    return SeqVec(A, N, V_N, t0=t0, tower=tower)


def lift_sigma_d_to_sigma(V: sp.Matrix, ratio, d: int, A: sp.Matrix,
                          B: sp.Matrix, N: Optional[int] = None,
                          tower: Tower = TRIVIAL_TOWER,
                          check_terms: int = 30) -> SeqVec:
    """Lift a hypergeometric solution V*h (sigma^d(h) = ratio*h) of the
    sigma^d-system to a solution sequence of the sigma-system:
    W(N) = V(N) (prefactor normalized to h(N) = 1), W(j+1) = A(j) W(j).

    Cross-checked against the section-sum construction
    U = V_0 + ... + V_{d-1}, V_i(j) = A(j)^{-1} V_{i-1}(j+1), on a
    check_terms window; disagreement raises VerificationError.  V_0 lives
    on the class j = N mod d, so U(j) = V_i(j) for i = (N - j) mod d, and
    each V_i(j) comes from solving A(j) V_i(j) = V_{i-1}(j+1).
    """
    if N is None:
        N = first_safe_index(A, B, V, tower)
    W = SeqVec(A, N, V.subs(x, N), tower=tower)
    if d == 1:
        return W
    pts = W.points
    Vc, rc = pts.compile(V), pts.compile([ratio])
    hs = [[pts.K.one]]  # h(N + d*s), normalized by h(N) = 1
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
                comps[i, j] = pts.solve(pts.at(W.compiled, j),
                                        comp(i - 1, j + 1))
        return comps[i, j]

    for j in range(N, N + check_terms):
        U = comp((N - j) % d, j)
        if any(pts.sub(u, w) for u, w in zip(U, W.point(j))):
            raise VerificationError(
                f"lift cross-check failed at index {j}: recurrence and "
                "section-sum constructions disagree")
    return W


# ---------------------------------------------------------------------------
# solution certificates

@dataclass
class HypCert:
    sigma_ratio: sp.Expr
    sigma_step: int
    delta_ratio: sp.Expr


@dataclass
class LiouvilleSolution:
    """kind 'Hypergeometric': W, cert describe W*h with sigma^m(h) =
    sigma_ratio*h and delta(h) = delta_ratio*h.  kind 'Interlaced':
    components [(shift class i, W_i, cert_i)] of sigma^d-solutions whose
    lifts interlace to solutions of the sigma-system."""
    kind: str
    W: Optional[sp.Matrix] = None
    cert: Optional[HypCert] = None
    period: int = 1
    components: list = field(default_factory=list)
    tower: Tower = TRIVIAL_TOWER


@dataclass
class VerifyResult:
    ok: bool
    failures: list  # human-readable identity names

    def __bool__(self):
        return self.ok


def _check_pair(A, B, W, cert: HypCert, tower: Tower, label: str):
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


def verify_certificates(system, sol: LiouvilleSolution) -> VerifyResult:
    """Exact identity check of a solution against sigma(Y)=AY, delta(Y)=BY.

    `system` needs attributes A and B.  Hypergeometric solutions check the
    two identities directly; Interlaced ones check every component against
    the sigma^period-system."""
    A, B = system.A, system.B
    tower = sol.tower
    failures = []
    if sol.kind == "Hypergeometric":
        failures += _check_pair(A, B, sol.W, sol.cert, tower, "solution")
    elif sol.kind == "Interlaced":
        for i, W, cert in sol.components:
            failures += _check_pair(A, B, W, cert, tower, f"component {i}")
    else:
        failures.append(f"unknown solution kind {sol.kind!r}")
    return VerifyResult(not failures, failures)


def verify_numeric_window(system, sol: LiouvilleSolution, t0, terms: int = 30) -> VerifyResult:
    """Evaluate the sigma-relation at t = t0 for `terms` integer points.

    All arithmetic is exact over Q (extended by the tower generator with t
    specialized when the solution lives in an extension); the delta
    relation is checked symbolically by verify_certificates."""
    pts = PointEvaluator(sol.tower, t0)
    failures = []
    parts = ([("solution", sol.W, sol.cert)] if sol.kind == "Hypergeometric"
             else [(f"component {i}", W, c) for i, W, c in sol.components])
    for label, W, cert in parts:
        m = cert.sigma_step
        Am = pts.compile(sigma_power_matrix(system.A, m))
        Wc, rc = pts.compile(W), pts.compile([cert.sigma_ratio])
        # start past every pole visible after the specialization t = t0
        N = 1
        for _, den in Am + Wc + rc:
            if len(den) > 1:
                for r in _integer_x_roots(pts.xpoly_to_sympy(den)):
                    N = max(N, r + m + 1)
        for j in range(N, N + terms):
            try:
                Wj, Wjm, (rj,) = (pts.at(Wc, j), pts.at(Wc, j + m),
                                  pts.at(rc, j))
                AWj = pts.matvec(pts.at(Am, j), Wj)
            except PoleError:
                failures.append(f"{label}: pole during numeric verification "
                                f"at index {j}")
                break
            if any(pts.sub(pts.mul(w, rj), aw) for w, aw in zip(Wjm, AWj)):
                failures.append(
                    f"{label}: sigma relation fails at x={j}, t={t0}")
                break
    return VerifyResult(not failures, failures)
