"""Sequence semantics: recurrence-generated sequences, lifting
sigma^d-solutions to sigma-solutions, and exact verification of solution
certificates.  The lift and the certificate check decide one
sigma-identity, sigma^m(W) r = A_m W, through one routine, and a solve
decides it once, in the certificate check, before it lifts the solutions
it verified; the lift is then the recurrence itself, computed only as its
values are read.

Transcendental prefactors (Gamma-products, t^x, exp-integrals) are never
evaluated: a solution is carried as a rational vector part plus a
certificate pair (sigma-ratio, delta-ratio), so every check below is a
rational identity or an exact evaluation.  A matrix over a tower is
evaluated at points as its K-form, whose values multiply as plain
matrices over Z[t], or over Z with t specialized: the regular
representation carries the tower's products to the points, so no second
tower arithmetic runs there.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import sympy as sp
from sympy import QQ, ZZ
from sympy.polys.densebasic import dup_from_raw_dict
from sympy.polys.factortools import dup_irreducible_p
from sympy.polys.matrices import DomainMatrix

from .fields import (QQ_T, QQ_XT, TRIVIAL_TOWER, FieldError, Tower,
                     common_integer_roots, dm_clear, dm_delta_clear,
                     dm_embed, dm_same, dm_shift_clear, dm_sigma_power,
                     dm_to_matrix, from_theta_coords, t, theta,
                     x_integer_roots)

__all__ = ["SeqVec", "lift_sigma_d_to_sigma", "HypCert", "Part",
           "LiouvilleSolution", "VerifyResult", "verify_certificates",
           "verify_numeric_window", "WINDOW_TERMS",
           "first_regular_index", "first_safe_index", "PoleError",
           "PointEvaluator", "CompiledMatrix", "VerificationError",
           "tower_fault"]


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
_X = QQ_XT.field.ring.gens[0]   # x in Z[x, t], where K's numerators live


class PointEvaluator:
    """Evaluation of K-matrices at integer x, with no gcd on the way.

    A matrix over the tower Q(x, t)(theta) is evaluated as its K-form, the
    K-matrix of its regular representation over K = Q(x, t): the values of
    K-forms multiply as plain matrices over a ground ring R, Z[t], or Z
    when t is specialized to a rational t0 = a/b, and those products are
    the tower's products at the point.  A vector over the tower is carried
    as its coordinates over R, the first column of its K-form.

    :meth:`compile` clears a K-form's denominators once (one lcm per
    distinct denominator, :func:`~ddsolve.fields.dm_clear`) and reads its
    numerators and their common denominator as dense polynomials in x
    over R, kept over Z[t] or, at t0, homogenized to Z
    (:meth:`dense_in_x`); :meth:`at` evaluates them at x = j by Horner's
    rule over R.  No rational arithmetic runs at t0, which is a SymPy
    Rational (FieldError for any other value, a Float included).
    """

    def __init__(self, t0=None):
        if t0 is not None and not isinstance(t0, sp.Rational):
            raise FieldError(f"t0 must be a rational number: {t0}")
        self.t0 = None if t0 is None else QQ(t0.p, t0.q)
        self.R = _ZZ_T if t0 is None else ZZ
        self.K = QQ_T if t0 is None else QQ   # where values are read out

    def matvec(self, M: list, v: list) -> list:
        """M v over R, for M a flat row-major list of len(M) // len(v)
        rows."""
        n, zero = len(v), self.R.zero
        return [sum((a * b for a, b in zip(M[i:i + n], v) if a and b), zero)
                for i in range(0, len(M), n)]

    @staticmethod
    def same(u: list, du, w: list, dw) -> bool:
        """Do the vectors u / du and w / dw agree?  By cross-multiplication."""
        return all(a * dw == b * du for a, b in zip(u, w))

    def to_sympy(self, a: list, den) -> sp.Expr:
        """The tower element a / den, a a dense polynomial in theta over R,
        its coefficients in the canonical form of Q(t) (of Q at t0)."""
        K, R = self.K, self.R
        d = K.convert_from(den, R)
        return sp.Add(*(K.to_sympy(K.convert_from(c, R) / d) * theta**k
                        for k, c in enumerate(reversed(a))))

    def compile(self, D: DomainMatrix):
        """(nums, den) for the K-matrix D: entry i (row-major) is
        nums[i] / den, nums[i] and den dense polynomials in x over R,
        highest degree first."""
        q, N = dm_clear(D)
        den, *nums = self.dense_in_x([q] + N.to_list_flat())
        return nums, den

    def dense_in_x(self, polys: list) -> list:
        """Polynomials in Z[x, t] as dense polynomials in x over R: over
        Z[t], or at t0 = a/b homogenized by b^D, D the largest degree in t
        among them, as b^D p(x, a/b) over Z.  The common factor b^D leaves
        the quotients of a compiled set unchanged."""
        out = []
        if self.t0 is not None:
            a, b = self.t0.numerator, self.t0.denominator
            D = max(p.degree(1) for p in polys if p)
            for p in polys:
                coeffs: dict = {}
                for (i, k), c in p.terms():
                    coeffs[i] = coeffs.get(i, 0) + c * a**k * b**(D - k)
                out.append(dup_from_raw_dict(coeffs, ZZ))
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
        zero = self.R.zero
        out = []
        for p in [den] + nums:
            acc = zero
            for c in p:
                acc = acc * j + c
            out.append(acc)
        if not out[0]:
            raise PoleError("denominator vanishes", j)
        return out[1:], out[0]


def tower_fault(tower: Tower, t0) -> Optional[str]:
    """Why the tower does not specialize at the rational t = t0, or None
    when it does: its minimal polynomial has a pole there, or is reducible
    over Q there."""
    if tower.trivial:
        return None
    pts = PointEvaluator(t0)
    m = DomainMatrix([list(tower.modulus)], (1, tower.degree + 1), QQ_XT)
    try:
        mod, _ = pts.at(pts.compile(m), 0)
    except PoleError:
        return f"minimal polynomial has a pole at t = {t0}"
    if not dup_irreducible_p(mod, ZZ):
        return f"minimal polynomial is reducible at t = {t0}"
    return None


class CompiledMatrix:
    """A square K-matrix A, the K-form of a matrix over a tower, compiled
    once by a :class:`PointEvaluator` at t = t0 as A = N / d.

    Its value (N(j), d(j)) at each integer is computed once; sequences
    built on one recurrence share it, and read the values, never modify
    them."""

    def __init__(self, D: DomainMatrix, t0=None):
        self.points = PointEvaluator(t0)
        self.compiled = self.points.compile(D)
        self._values: dict = {}

    def at(self, j: int):
        """(N(j), d(j))."""
        if j not in self._values:
            self._values[j] = self.points.at(self.compiled, j)
        return self._values[j]


# ---------------------------------------------------------------------------
# sequences

class SeqVec:
    """Vector sequence generated by W(j+1) = A(j) W(j) from W(N) = V(N),
    for A and V given by their K-forms over a tower, whose degree is the
    number of columns of V's.

    Values below the start index are zero (the lift construction only
    constrains a sequence from some index on).  Steps run fraction-free in
    the ground ring of the :class:`CompiledMatrix` A = N / d: W(j) is
    carried as (w(j), D(j)), its coordinates over the ring (the first
    column of its K-form) and one common denominator, with
    w(j+1) = N(j) w(j) and D(j+1) = d(j) D(j), and no gcd.  A step runs
    when a value past it is first read, and is cached; a single SeqVec is
    not safe for concurrent mutation.
    """

    def __init__(self, steps: CompiledMatrix, N: int, V: DomainMatrix):
        self.steps = steps
        self.points = pts = steps.points
        self.N, self.deg = N, V.shape[1]
        v, d = pts.at(pts.compile(V), N)
        self._cache = [(v[::self.deg], d)]

    def point(self, j: int) -> tuple:
        """(w, D): W(j) = w / D, w the coordinates of W(j) over the ground
        ring of :attr:`points`."""
        if j < self.N:
            R = self.points.R
            return [R.zero] * len(self._cache[0][0]), R.one
        k = j - self.N
        while len(self._cache) <= k:
            w, D = self._cache[-1]
            Nj, dj = self.steps.at(self.N + len(self._cache) - 1)
            self._cache.append((self.points.matvec(Nj, w), D * dj))
        return self._cache[k]

    def value(self, j: int) -> sp.Matrix:
        w, D = self.point(j)
        return sp.Matrix([self.points.to_sympy(a, D)
                          for a in from_theta_coords(w, self.deg)])


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
    solution through V can start.  ValueError for V = 0, which is zero
    at every index."""
    if V.is_zero_matrix:
        raise ValueError("a zero V has no start index")
    N = max(start, 1 + max((r for e in V.to_list_flat()
                            for r in x_integer_roots(e.denom)), default=0))
    # V(N) is defined, so it is zero when every numerator vanishes at x = N
    while not any(e.numer.evaluate(_X, N) for e in V.to_list_flat()):
        N += 1
    return N


def lift_sigma_d_to_sigma(V: DomainMatrix, ratio: DomainMatrix, d: int,
                          A: DomainMatrix, B: DomainMatrix,
                          N: Optional[int] = None) -> SeqVec:
    """Lift a hypergeometric solution V*h (sigma^d(h) = ratio*h) of the
    sigma^d-system to a solution sequence of the sigma-system:
    W(N) = V(N) (prefactor normalized to h(N) = 1), W(j+1) = A(j) W(j).
    V, the 1 x 1 matrix [ratio], A and B are given by their K-forms over
    one tower.  VerificationError unless sigma^d(V) ratio = A_d V holds
    exactly (:func:`_sigma_identity`, A_d = sigma^{d-1}(A) ... A); no
    term is computed before a value is read.

    Why W is the lift.  Take h with sigma^d(h) = ratio*h and h(N) = 1.  By
    induction on s, W(N + sd) = A_d(N + (s-1)d) W(N + (s-1)d)
    = A_d(N + (s-1)d) V(N + (s-1)d) h(N + (s-1)d) = V(N + sd) h(N + sd),
    the identity read at x = N + (s-1)d wherever V and ratio are defined.
    Every A(j) with j >= N is defined and invertible when
    N >= :func:`first_regular_index`, so on each other index j the
    section sum A(j)^-1 ... A(N + sd - 1)^-1 V(N + sd) h(N + sd) equals
    W(j): W is the interlacing of the d sections of V*h.

    N defaults to the :func:`first_safe_index` of V after the
    :func:`first_regular_index` of A, B and det A, which guarantees all
    of the above: A(j) is defined and invertible and V(j) defined for
    j >= N, and V(N) != 0.  A given N is taken as it is; the caller
    vouches for those conditions, and a pole of A met on the way raises
    PoleError when the value is read.
    """
    if not _sigma_identity(dm_clear(V), ratio, dm_sigma_power(A, d), d):
        raise VerificationError(
            f"lift precondition fails: sigma^{d}(V)*r != A_{d}*V")
    if N is None:
        N = first_safe_index(first_regular_index(A, B, A.det()), V)
    return SeqVec(CompiledMatrix(A), N, V)


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
    """A solution by the K-forms of its one hypergeometric part W*h over
    its tower, what the certificate check, the numeric window and the lift
    read.  kind 'Hypergeometric': a solution of the sigma-system.  kind
    'Interlaced': a sigma^m-solution on the class j = part.shift mod m,
    whose lift interlaces to a solution of the sigma-system.

    :attr:`W` and :attr:`cert` are the same data as sympy expressions,
    formed on first read for the report, the solution file and the
    expression API; the part is not modified after construction."""
    kind: str
    part: Part
    tower: Tower = TRIVIAL_TOWER

    @functools.cached_property
    def W(self) -> sp.Matrix:
        """The vector part."""
        return dm_to_matrix(self.part.W, self.tower)

    @functools.cached_property
    def cert(self) -> HypCert:
        """The certificates."""
        p = self.part
        return HypCert(dm_to_matrix(p.r, self.tower)[0], p.m,
                       dm_to_matrix(p.c, self.tower)[0])


@dataclass
class VerifyResult:
    ok: bool
    failures: list  # human-readable identity names


def _sigma_identity(Wc: tuple, r: DomainMatrix, Am: DomainMatrix,
                    m: int) -> bool:
    """Whether sigma^m(W) r = A_m W, for K-forms over one tower, W given by
    its pair Wc of :func:`~ddsolve.fields.dm_clear`, decided on cleared
    numerators (:func:`~ddsolve.fields.dm_same`): the sigma half of a
    certificate and the precondition of the lift."""
    return dm_same([(dm_shift_clear(Wc, m), r)], [(Am, Wc)])


def _check_pair(system, part: Part, tower: Tower) -> list:
    """The sigma- and delta-identities of one hypergeometric part, as
    equalities of K-forms over the tower decided on cleared numerators
    (:func:`~ddsolve.fields.dm_same`), W cleared once for both."""
    W, m = part.W, part.m
    if W.is_zero_matrix:
        return [f"{part.label}: W is zero"]
    Wc = dm_clear(W)
    failures = []
    if not _sigma_identity(Wc, part.r, dm_embed(system.cocycle(m), tower), m):
        failures.append(
            f"{part.label}: sigma identity sigma^{m}(W)*r = A_{m}*W")
    if not dm_same([(dm_delta_clear(Wc if tower.trivial else W, tower),),
                    (Wc, part.c)], [(dm_embed(system.B_K, tower), Wc)]):
        failures.append(f"{part.label}: delta identity delta(W) + c*W = B*W")
    return failures


def verify_certificates(system, sol: LiouvilleSolution) -> VerifyResult:
    """Exact identity check of a solution against sigma(Y)=AY, delta(Y)=BY,
    over K = Q(x, t) with t symbolic.

    `system` is a :class:`~ddsolve.procedures.DDSystem`, whose K-forms of
    B and of the cocycle A_m are read: the part is checked against the
    sigma^m-system, m = 1 for a Hypergeometric solution."""
    failures = _check_pair(system, sol.part, sol.tower)
    return VerifyResult(not failures, failures)


# the length of every numeric window, the solve's and verify's default
WINDOW_TERMS = 30


def verify_numeric_window(system, sol: LiouvilleSolution, t0,
                          terms: int = WINDOW_TERMS) -> VerifyResult:
    """Evaluate the sigma-relation at t = t0 for `terms` integer points.

    All arithmetic is exact over Z, on the values of the K-forms at the
    points with t specialized (:class:`PointEvaluator`): W(j+m) r(j) is W's
    K-form at j+m applied to the coordinates of r(j), and A_m(j) W(j) the
    K-form of A_m over the tower applied to those of W(j).  FieldError
    when the tower does not specialize at t0 (:func:`tower_fault`); the
    delta relation is checked symbolically by verify_certificates."""
    if terms < 1:
        raise ValueError(f"numeric window needs terms >= 1, got {terms}")
    fault = tower_fault(sol.tower, t0)
    if fault is not None:
        raise FieldError(fault)
    part, deg = sol.part, sol.tower.degree
    label, m = part.label, part.m
    pts = PointEvaluator(t0)
    Am, Wc, rc = (pts.compile(dm_embed(system.cocycle(m), sol.tower)),
                  pts.compile(part.W), pts.compile(part.r))
    # start past every pole visible after the specialization t = t0
    N = max([1] + [r + m + 1 for _, den in (Am, Wc, rc) if len(den) > 1
                   for r in common_integer_roots([den])])
    for j in range(N, N + terms):
        try:
            (Wjm, dWjm), (rj, dr) = pts.at(Wc, j + m), pts.at(rc, j)
            (Aj, dA), (Wj, dW) = pts.at(Am, j), pts.at(Wc, j)
        except PoleError:
            return VerifyResult(False, [f"{label}: pole during numeric "
                                        f"verification at index {j}"])
        if not pts.same(pts.matvec(Wjm, rj[::deg]), dWjm * dr,
                        pts.matvec(Aj, Wj[::deg]), dA * dW):
            return VerifyResult(False, [
                f"{label}: sigma relation fails at x={j}, t={t0}"])
    return VerifyResult(True, [])
