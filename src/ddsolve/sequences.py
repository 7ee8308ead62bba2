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
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import sympy as sp
from sympy import QQ, ZZ
from sympy.polys.densearith import (dup_add, dup_lshift, dup_mul,
                                    dup_mul_ground, dup_prem)
from sympy.polys.densebasic import dup_degree, dup_from_raw_dict, dup_strip
from sympy.polys.factortools import dup_irreducible_p
from sympy.polys.matrices import DomainMatrix
from sympy.polys.matrices.exceptions import DMNonInvertibleMatrixError

from .fields import (QQ_T, QQ_XT, TRIVIAL_TOWER, FieldError, Tower, _modulus,
                     common_integer_roots, dm_delta, dm_embed,
                     dm_same, dm_shift, dm_to_matrix,
                     from_regular, from_theta_coords, regular_rows, t, theta,
                     theta_coords, x_integer_roots)

__all__ = ["Seq", "FuncSeq", "SeqVec", "interlace", "section",
           "seq_from_recurrence", "lift_sigma_d_to_sigma",
           "HypCert", "Part", "LiouvilleSolution", "VerifyResult",
           "verify_certificates", "verify_numeric_window",
           "first_regular_index", "first_safe_index", "PoleError",
           "PointEvaluator", "CompiledMatrix", "VerificationError"]


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

_ZZ_T = ZZ[t]
_XT_RING = QQ_XT.field.ring   # Z[x, t], where K's numerators live
_X = _XT_RING.gens[0]


class PointEvaluator:
    """Evaluation of matrices over Q(x, t)(theta) at integer x, with no
    gcd on the way.

    Arithmetic is over a ground ring R: Q when t is specialized to t0,
    Z[t] otherwise.  A tower element is a dense list of coefficients in
    theta over R (highest first, [] for zero) of degree below that of the
    modulus m: the minimal polynomial at t0 (monic over Q), or its
    multiple with coefficients in Z[t], whose leading coefficient lc may
    depend on t.  :meth:`reduce` is the pseudo-remainder of lcf * a with
    the fixed factor lcf = lc^(deg m - 1), the most a product of two
    reduced elements needs; a reduced product thus stands for lcf times
    the true one, and callers carry lcf in a denominator (lcf = 1 at t0
    and for monic m).

    :meth:`compile` takes a matrix's K-form (its regular representation
    over K = Q(x, t)) and reads numerators over one common denominator
    straight off the Z[x, t] numerators and denominators of the entries,
    specialized at t0 or kept over Z[t]; :meth:`at`
    evaluates them at x = j by Horner's rule over R.
    """

    def __init__(self, tower: Tower = TRIVIAL_TOWER, t0=None):
        self.t0 = t0
        self.R = _ZZ_T if t0 is None else QQ
        self.K = QQ_T if t0 is None else QQ   # where values are read out
        self.degree = tower.degree
        self.mod, self.lcf = None, self.R.one
        if tower.trivial:
            return
        (m,), den = self._compile([_modulus(tower)])
        if t0 is None:
            self.mod = m[0]
            self.lcf = self.mod[0] ** (self.degree - 1)
            return
        if not den:
            raise FieldError(f"minimal polynomial has a pole at t = {t0}")
        self.mod = [c / den[0] for c in m[0]]
        if not dup_irreducible_p(self.mod, QQ):
            raise FieldError(f"minimal polynomial is reducible at t = {t0}")

    # tower arithmetic
    def reduce(self, a: list) -> list:
        """lcf * a mod m, for a of degree at most 2 (deg m - 1)."""
        if self.mod is None:
            return a
        R, e = self.R, dup_degree(a) - len(self.mod) + 2
        if e > 0:
            a = dup_prem(a, self.mod, R)   # lc^e * a mod m
        return dup_mul_ground(a, self.mod[0] ** (self.degree - 1 - max(e, 0)),
                              R)

    def mul(self, a: list, b: list) -> list:
        return self.reduce(dup_mul(a, b, self.R))

    def matvec(self, M: list, v: list) -> list:
        """M v (times lcf) for M a flat row-major list of len(M) // len(v)
        rows."""
        n, R = len(v), self.R
        out = []
        for i in range(0, len(M), n):
            acc = []
            for a, b in zip(M[i:i + n], v):
                if a and b:
                    acc = dup_add(acc, dup_mul(a, b, R), R)
            out.append(self.reduce(acc))
        return out

    def same(self, u: list, du, w: list, dw) -> bool:
        """Do the vectors u / du and w / dw agree?  By cross-multiplication."""
        R = self.R
        return all(dup_mul_ground(a, dw, R) == dup_mul_ground(b, du, R)
                   for a, b in zip(u, w))

    def to_sympy(self, a: list, den) -> sp.Expr:
        """The tower element a / den, its coefficients in the canonical
        form of Q(t) (of Q at t0)."""
        K, R = self.K, self.R
        d = K.convert_from(den, R)
        return sp.Add(*(K.to_sympy(K.convert_from(c, R) / d) * theta**k
                        for k, c in enumerate(reversed(a))))

    # compiled matrices
    def compile(self, D: DomainMatrix, deg: int = 1):
        """(nums, den) for the matrix whose K-form is D, a regular
        representation of degree `deg` (1 for a matrix over K): entry i
        (row-major) is nums[i] / den, nums[i] a dense polynomial in x
        (highest degree first) with tower coefficients over R, den a dense
        polynomial in x over R."""
        return self._compile(from_regular(D, deg))

    def _compile(self, entries: list):
        den = _XT_RING.one
        for a in entries:
            for c in a:
                den = den.lcm(c.denom)
        nums = [[c.numer * den.exquo(c.denom) for c in a] for a in entries]
        dense = iter(self._dense_in_x([den] + [p for a in nums for p in a]))
        den = next(dense)
        out = []
        for a in nums:
            coeffs = [next(dense) for _ in a]
            size = max(map(len, coeffs), default=0)
            coeffs = [[self.R.zero] * (size - len(c)) + c for c in coeffs]
            out.append(dup_strip([dup_strip([c[i] for c in coeffs])
                                  for i in range(size)]))
        return out, den

    def _dense_in_x(self, polys: list) -> list:
        """Polynomials in Z[x, t] as dense polynomials in x over R: at
        t = t0, or over Z[t]."""
        out = []
        if self.t0 is not None:
            t0 = QQ.from_sympy(self.t0)
            for p in polys:
                coeffs: dict = {}
                for (i, k), c in p.terms():
                    coeffs[i] = coeffs.get(i, QQ.zero) + c * t0**k
                out.append(dup_from_raw_dict(coeffs, QQ))
            return out
        ring = _ZZ_T.ring
        for p in polys:
            coeffs = {}
            for (i, k), c in p.terms():
                coeffs.setdefault(i, {})[(k,)] = c
            out.append(dup_from_raw_dict(
                {i: ring.from_dict(cs) for i, cs in coeffs.items()}, _ZZ_T))
        return out

    def at(self, compiled, j: int):
        """(values, d): the compiled entries at x = j are values[i] / d;
        PoleError where the common denominator d is zero."""
        nums, den = compiled
        R = self.R
        d = R.zero
        for c in den:
            d = d * j + c
        if not d:
            raise PoleError("denominator vanishes", j)
        out = []
        for p in nums:
            acc = []
            for c in p:
                acc = dup_add(dup_mul_ground(acc, j, R), c, R)
            out.append(acc)
        return out, d

    def regular(self, M: list, n: int) -> list:
        """lcf times the regular representation over R of the n x n matrix
        M of tower elements (row-major), as rows (see
        :func:`fields.regular_rows`)."""
        R = self.R
        return regular_rows(M, (n, n), self.degree,
                            lambda a, k: self.reduce(dup_lshift(a, k, R)),
                            R.zero)


class CompiledMatrix:
    """A square matrix A over Q(x, t)(theta), compiled once by a
    :class:`PointEvaluator` over the tower at t = t0 from its K-form D (a
    regular representation of degree `deg`) as A = N / d.

    Its value (N(j), d(j)) at each integer is computed once, and so, for
    the section-sum construction, is the fraction-free inverse of the
    regular representation of N(j).  Sequences built on one recurrence
    share it; the values are read, never modified."""

    def __init__(self, D: DomainMatrix, tower: Tower = TRIVIAL_TOWER,
                 t0=None, deg: int = 1):
        self.points = PointEvaluator(tower, t0)
        self.compiled = self.points.compile(D, deg)
        self.n = D.shape[0] // deg
        self._values: dict = {}
        self._inverses: dict = {}

    def at(self, j: int):
        """(N(j), d(j))."""
        if j not in self._values:
            self._values[j] = self.points.at(self.compiled, j)
        return self._values[j]

    def solve(self, j: int, v: list, dv):
        """A(j)^-1 (v / dv) as (u, du): u = lcf d(j) X v and du = den dv,
        where X / den is the inverse of the regular representation of N(j)
        (which holds lcf N(j)), computed fraction-free over R;
        FieldError when A(j) is singular."""
        pts = self.points
        R, deg = pts.R, pts.degree
        if j not in self._inverses:
            N, d = self.at(j)
            size = self.n * deg
            try:
                X, den = DomainMatrix(pts.regular(N, self.n), (size, size),
                                      R).inv_den()
            except DMNonInvertibleMatrixError:
                raise FieldError("matrix not invertible") from None
            self._inverses[j] = X.to_list(), den, d * pts.lcf
        X, den, scale = self._inverses[j]
        c = theta_coords(v, deg, R.zero)
        u = [sum((a * b for a, b in zip(row, c) if a and b), R.zero) * scale
             for row in X]
        return from_theta_coords(u, deg), den * dv


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
    constrains a sequence from some index on).  Steps run fraction-free in
    the ground ring of the :class:`CompiledMatrix` A = N / d: W(j) is
    carried as (w(j), D(j)), a vector over the ring and one common
    denominator, with w(j+1) = N(j) w(j) and D(j+1) = d(j) D(j) (times
    the tower's lcf), and no gcd.  `base` is such a pair.  Steps are
    cached; a single SeqVec is not safe for concurrent mutation.
    """

    def __init__(self, steps: CompiledMatrix, N: int, base: tuple):
        self.steps = steps
        self.points = steps.points
        self.N = N
        self._cache = [base]

    def point(self, j: int) -> tuple:
        """(w, D): W(j) = w / D, w a list of tower elements of
        :attr:`points`."""
        if j < self.N:
            return [[] for _ in self._cache[0][0]], self.points.R.one
        k = j - self.N
        while len(self._cache) <= k:
            w, D = self._cache[-1]
            Nj, dj = self.steps.at(self.N + len(self._cache) - 1)
            self._cache.append((self.points.matvec(Nj, w),
                                D * dj * self.points.lcf))
        return self._cache[k]

    def value(self, j: int) -> sp.Matrix:
        w, D = self.point(j)
        return sp.Matrix([self.points.to_sympy(a, D) for a in w])


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


def first_regular_index(A: DomainMatrix, B: DomainMatrix, det) -> int:
    """Least N >= 1 with A(j), B(j) defined and det A(j) != 0 for all
    j >= N, for A and B given by their K-forms over a tower and det the
    determinant of A's (an element of K).

    Found by scanning the integer roots (in x) of every denominator of the
    K-forms and of the numerator and denominator of det.  That determinant
    is the norm of det A, so its integer roots include those of det A.
    t and theta stay symbolic, so a root must be a genuine
    rational-integer root of a coefficient-wise zero polynomial.
    """
    polys = ([e.denom for D in (A, B) for e in D.to_list_flat()]
             + [det.numer, det.denom])
    return 1 + max((r for p in polys for r in x_integer_roots(p)
                    if r > 0), default=0)


def first_safe_index(start: int, V: DomainMatrix) -> int:
    """Least N >= start with V defined at every j >= N and V(N) != 0, for
    V given by its K-form over a tower and `start` the
    :func:`first_regular_index` of the system: the first index at which a
    solution through V can start."""
    N = max(start, 1 + max((r for e in V.to_list_flat()
                            for r in x_integer_roots(e.denom)), default=0))
    # V(N) is defined, so it is zero when every numerator vanishes at x = N
    while not any(e.numer.evaluate(_X, N) for e in V.to_list_flat()):
        N += 1
    return N


def seq_from_recurrence(A: DomainMatrix, N: int, V_N: DomainMatrix,
                        t0=None, tower: Tower = TRIVIAL_TOWER) -> SeqVec:
    """SeqVec with W(N) = V_N and W(j+1) = A(j) W(j), for A and V_N given
    by their K-forms over the tower."""
    steps = CompiledMatrix(A, tower, t0, tower.degree)
    pts = steps.points
    return SeqVec(steps, N, pts.at(pts.compile(V_N, tower.degree), N))


def lift_sigma_d_to_sigma(V: DomainMatrix, ratio: DomainMatrix, d: int,
                          A: DomainMatrix, B: DomainMatrix,
                          N: Optional[int] = None,
                          tower: Tower = TRIVIAL_TOWER,
                          check_terms: int = 30,
                          steps: Optional[CompiledMatrix] = None) -> SeqVec:
    """Lift a hypergeometric solution V*h (sigma^d(h) = ratio*h) of the
    sigma^d-system to a solution sequence of the sigma-system:
    W(N) = V(N) (prefactor normalized to h(N) = 1), W(j+1) = A(j) W(j).
    V, the 1 x 1 matrix [ratio], A and B are given by their K-forms over
    the tower.

    Cross-checked against the section-sum construction
    U = V_0 + ... + V_{d-1}, V_i(j) = A(j)^{-1} V_{i-1}(j+1), on a
    check_terms window; disagreement raises VerificationError.  V_0 lives
    on the class j = N mod d, so U(j) = V_i(j) for i = (N - j) mod d.
    Both constructions run fraction-free over Z[t] with t symbolic:
    V_i(j) = d(j) X(j) V_{i-1}(j+1) / den(j) for A = N / d, where
    X(j) / den(j) is the fraction-free inverse of N(j), and U(j) = W(j) is
    tested by cross-multiplication.

    N defaults to the :func:`first_safe_index` of V after the
    :func:`first_regular_index` of A, B and det A.  `steps`, the
    CompiledMatrix of A over the tower with t symbolic, lets the lifts of
    several solutions of one system share N(j), d(j) and the inverses; it
    is built here when not given.  A caller lifting several solutions of
    one system passes both, so that det A and the poles of A and B are
    read once.
    """
    if N is None:
        N = first_safe_index(first_regular_index(A, B, A.det()), V)
    deg = tower.degree
    if steps is None:
        steps = CompiledMatrix(A, tower, deg=deg)
    pts = steps.points
    Vc = pts.compile(V, deg)
    W = SeqVec(steps, N, pts.at(Vc, N))
    if d == 1:
        return W
    rc = pts.compile(ratio, deg)
    one = pts.R.one
    hs = [([one], one)]   # h(N + d*s) = num / den, normalized by h(N) = 1
    comps: dict = {}

    def comp(i, j):
        if (i, j) not in comps:
            if i == 0:
                s = (j - N) // d
                while len(hs) <= s:
                    (r,), dr = pts.at(rc, N + d * (len(hs) - 1))
                    h, dh = hs[-1]
                    hs.append((pts.mul(h, r), dh * dr * pts.lcf))
                h, dh = hs[s]
                v, dv = pts.at(Vc, j)
                comps[i, j] = ([pts.mul(a, h) for a in v], dv * dh * pts.lcf)
            else:
                comps[i, j] = steps.solve(j, *comp(i - 1, j + 1))
        return comps[i, j]

    for j in range(N, N + check_terms):
        if not pts.same(*comp((N - j) % d, j), *W.point(j)):
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


class Part(NamedTuple):
    """One hypergeometric part W*h of a solution, sigma^m(h) = r*h and
    delta(h) = c*h, with W, the 1 x 1 matrices [r] and [c] as K-forms over
    the solution's tower.  The component of an interlaced solution lives
    on the class j = shift mod m; shift is None for a hypergeometric one."""
    W: DomainMatrix
    r: DomainMatrix
    c: DomainMatrix
    m: int
    shift: Optional[int] = None

    @property
    def label(self) -> str:
        return "solution" if self.shift is None else f"component {self.shift}"


@dataclass
class LiouvilleSolution:
    """A solution by the K-forms of its hypergeometric parts over its
    tower, what the certificate check, the numeric window and the lift
    read.  kind 'Hypergeometric': one part W*h.  kind 'Interlaced':
    sigma^m-solutions on the classes j = shift mod m, whose lifts
    interlace to solutions of the sigma-system.

    :attr:`W`, :attr:`cert` and :attr:`components` are the same data as
    sympy expressions, formed on first read for the report, the solution
    file and the expression API; the parts are not modified after
    construction."""
    kind: str
    parts: list
    tower: Tower = TRIVIAL_TOWER

    @property
    def period(self) -> int:
        return self.parts[0].m if self.kind == "Interlaced" else 1

    @functools.cached_property
    def _exprs(self) -> list:
        """(W, cert) of each part, by dm_to_matrix."""
        return [(dm_to_matrix(p.W, self.tower),
                 HypCert(dm_to_matrix(p.r, self.tower)[0], p.m,
                         dm_to_matrix(p.c, self.tower)[0]))
                for p in self.parts]

    @property
    def W(self) -> Optional[sp.Matrix]:
        """The vector part of a Hypergeometric solution."""
        return self._exprs[0][0] if self.kind == "Hypergeometric" else None

    @property
    def cert(self) -> Optional[HypCert]:
        """The certificates of a Hypergeometric solution."""
        return self._exprs[0][1] if self.kind == "Hypergeometric" else None

    @property
    def components(self) -> list:
        """[(shift class, W, cert)] of an Interlaced solution."""
        if self.kind != "Interlaced":
            return []
        return [(p.shift, *e) for p, e in zip(self.parts, self._exprs)]


@dataclass
class VerifyResult:
    ok: bool
    failures: list  # human-readable identity names

    def __bool__(self):
        return self.ok


def _check_pair(system, part: Part, tower: Tower) -> list:
    """The sigma- and delta-identities of one hypergeometric part, as
    equalities of K-forms over the tower decided on cleared numerators
    (:func:`~ddsolve.fields.dm_same`)."""
    failures = []
    W, m = part.W, part.m
    if not dm_same([(dm_shift(W, m), part.r)],
                   [(dm_embed(system.cocycle(m), tower), W)]):
        failures.append(
            f"{part.label}: sigma identity sigma^{m}(W)*r = A_{m}*W")
    if not dm_same([(dm_delta(W, tower),), (W, part.c)],
                   [(dm_embed(system.B_K, tower), W)]):
        failures.append(f"{part.label}: delta identity delta(W) + c*W = B*W")
    return failures


def verify_certificates(system, sol: LiouvilleSolution) -> VerifyResult:
    """Exact identity check of a solution against sigma(Y)=AY, delta(Y)=BY,
    over K = Q(x, t) with t symbolic.

    `system` is a :class:`~ddsolve.procedures.DDSystem`, whose K-forms of
    B and of the cocycles A_m are read.  Hypergeometric solutions check the
    two identities directly; Interlaced ones check every component against
    the sigma^period-system."""
    if sol.kind not in ("Hypergeometric", "Interlaced"):
        return VerifyResult(False, [f"unknown solution kind {sol.kind!r}"])
    failures = [f for part in sol.parts
                for f in _check_pair(system, part, sol.tower)]
    return VerifyResult(not failures, failures)


def verify_numeric_window(system, sol: LiouvilleSolution, t0, terms: int = 30) -> VerifyResult:
    """Evaluate the sigma-relation at t = t0 for `terms` integer points.

    All arithmetic is exact over Q (extended by the tower generator with t
    specialized when the solution lives in an extension); the delta
    relation is checked symbolically by verify_certificates."""
    failures = []
    deg = sol.tower.degree
    pts = PointEvaluator(sol.tower, t0)
    for part in sol.parts:
        label, m = part.label, part.m
        Am, Wc, rc = (pts.compile(system.cocycle(m)), pts.compile(part.W, deg),
                      pts.compile(part.r, deg))
        # start past every pole visible after the specialization t = t0
        N = max([1] + [r + m + 1 for _, den in (Am, Wc, rc) if len(den) > 1
                       for r in common_integer_roots([den])])
        for j in range(N, N + terms):
            try:
                (Wjm, dWjm), ((rj,), dr) = pts.at(Wc, j + m), pts.at(rc, j)
                (Aj, dA), (Wj, dW) = pts.at(Am, j), pts.at(Wc, j)
            except PoleError:
                failures.append(f"{label}: pole during numeric verification "
                                f"at index {j}")
                break
            lhs = [pts.mul(w, rj) for w in Wjm]
            if not pts.same(lhs, dWjm * dr, pts.matvec(Aj, Wj), dA * dW):
                failures.append(
                    f"{label}: sigma relation fails at x={j}, t={t0}")
                break
    return VerifyResult(not failures, failures)
