"""Hypergeometric solutions of difference systems over Q(x) and
hyperexponential solutions of differential systems over Q(t).

hyper_ratios() is Petkovsek's Hyper with shift step m: it enumerates
Gosper-Petkovsek forms z * a(x)/b(x) * C(x+m)/C(x) with a | p_0 and
b(x+(k-1)m) | p_k, from start to finish in dense polynomial arithmetic
over a ground domain K: QQ, or QQ(z) when the constant z is a quadratic
irrational.  The equation for C is the sigma-side's polynomial ansatz,
ratsol.ansatz_kernel with its degree bound ratsol.degree_bound, on
sum_j R_j Delta_m^j C = 0 over the regular representation of
Q(z) = Q[theta]/(f), f the minimal polynomial of z: 1 x 1 for a
rational z, e x e for z of degree e, solved once per f, since
conjugate roots share it.  A constant of degree e >= 3 is
decided the same way: when its C-equation has a nonzero solution,
UnsupportedCase names f, since the ratios would need QQ(z).  Duplicate
ratios are found by cross-multiplying over K, and each ratio leaves as
(K, numerator, denominator), checked by substitution into the
recurrence over K.  petkovsek() is the expression boundary around it.

system_hypergeometric() takes the K-form of M (see :mod:`ddsolve.fields`)
and reduces sigma^m(Y) = M Y to scalar recurrences through the chain
v -> sigma^m(v) M, one per coordinate, whose K-forms go into hyper_ratios.
The ratios are deduplicated in K = Q(x, t), each is decomposed once as
sigma^m(g)/g * lambda with lambda standard, and the solutions are
recovered by rational back-substitution on K-forms.  Each W solves
sigma^m(W) r = M W by the substitution check ratsol.rational_solutions
makes on its numerator and denominator; it is not checked again here.
Candidates are grouped by the sigma^m-class of lambda; a vector in the
constant span of the earlier ones of its group is dropped.

hyperexp_solutions(Bhat: DomainMatrix) takes an x-free K-form and returns
candidates whose V is the K-form over their tower ((n*deg) x deg) and
whose certificate is an element of the tower (a dense list over K).  It
is deliberately restricted to diagonal, constant, and simple-pole
matrices; anything else raises UnsupportedCase.  The matrix is read over
Q(t): its simple poles and residue matrices, and its value at
t = infinity from numerator and denominator degrees.  Eigenvalues come
from the factors over Q(t) of one characteristic polynomial
(fields.charpoly_factors), eigenvectors over a tower from fields.kernel
on K-forms.  The rational solutions of a simple-pole system come from
the same ratsol.ansatz_kernel, here in t with D = d/dt (its degree bound
ratsol.degree_bound); each candidate is checked as the K-form identity
delta(V) + c V = Bhat V.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, lcm

import sympy as sp
from sympy import QQ, ZZ
from sympy.polys.densearith import (dup_add, dup_lshift, dup_mul, dup_pow,
                                   dup_rem)
from sympy.polys.densebasic import dup_convert, dup_degree, dup_strip
from sympy.polys.densetools import dup_clear_denoms, dup_monic, dup_shift
from sympy.polys.factortools import dup_factor_list
from sympy.polys.matrices import DomainMatrix

from .fields import (QQ_T, QQ_XT, TRIVIAL_TOWER, FieldError, Tower,
                     _field_element, charpoly_factors, dm_cleared,
                     dm_delta_clear, dm_diag, dm_embed, dm_inv, dm_over_qt,
                     dense_fraction, dm_same, regular_rows,
                     kernel, t_value, tower_from_modulus, x)
from .difftools import standard_decompose
from .ratsol import (UnsupportedCase, _constant_span_reduce, ansatz_kernel,
                     rational_solutions, scalar_operators)
from .sequences import VerificationError

__all__ = ["HypergeometricCandidate", "HyperexpCandidate", "UnsupportedCase",
           "hyper_ratios", "petkovsek", "ratio_expr", "recurrence_polys",
           "system_hypergeometric", "hyperexp_solutions"]

_Z = sp.Symbol("_z")
_X_DOMAIN = ZZ[x]               # Z[x], where Hyper's C-equation is cleared
_X_RING = _X_DOMAIN.ring


@dataclass
class HypergeometricCandidate:
    W: DomainMatrix         # K-form of the rational vector part
    ratio: object           # r in K: sigma^m(h) = r * h
    standard_part: object   # lambda in K: r = sigma^m(g)/g * lambda
    m: int


@dataclass
class HyperexpCandidate:
    V: DomainMatrix       # K-form over the tower of the vector part
    certificate: list     # delta(h) = certificate * h, in the tower
    tower: Tower = TRIVIAL_TOWER


# ---------------------------------------------------------------------------
# Petkovsek's Hyper.  Polynomials in x are dense lists over the ground
# domain K (QQ, or QQ(z) for a quadratic irrational z), highest degree
# first.

def recurrence_polys(pcoeffs) -> list:
    """The coefficients p_i as dense polynomials in x over Q, read into K
    (:func:`~ddsolve.fields.expr_value`).  ValueError names a coefficient
    outside Q[x] and an all-zero recurrence."""
    ps = []
    for p in pcoeffs:
        try:
            f = _field_element(QQ_XT, p)
        except FieldError:
            f = None
        if f is None or not f.denom.is_ground or f.numer.degree(1) > 0:
            raise ValueError(f"recurrence coefficient not in Q[x]: {p}")
        ps.append([QQ(a, f.denom.LC) for a in f.numer.drop(1).to_dense()])
    if not any(ps):
        raise ValueError("recurrence has only zero coefficients")
    return ps


def _monic_divisors(p: list) -> list:
    """All monic divisors of a nonzero polynomial over Q, in the order of
    its factor list, exponents of earlier factors varying slowest."""
    divisors = [[QQ.one]]
    for f, mult in dup_factor_list(p, QQ)[1]:
        f = dup_monic(f, QQ)
        divisors = [dup_mul(d, dup_pow(f, e, QQ), QQ)
                    for d in divisors for e in range(mult + 1)]
    return divisors


def _leading_roots(lead: list) -> list:
    """(K, z, f), f the monic minimal polynomial of z, for each nonzero
    root z of `lead` (a dense polynomial over Q) that is rational, K = QQ,
    or quadratic, K = QQ(z), in the order sp.ordered gives the roots of
    sp.roots(lead): the rational ones ascending (they have the fewest
    nodes), then the quadratic ones; then (None, None, f) for each
    irreducible factor f of higher degree."""
    rational, quadratic, higher = [], {}, []    # a quadratic root -> f
    for f, _ in dup_factor_list(lead, QQ)[1]:
        if len(f) == 2 and f[1]:
            rational.append(-f[1] / f[0])
        elif len(f) == 3:
            q = sp.Poly(f, _Z, domain=QQ)
            quadratic.update((r, q.monic())
                             for r in sp.roots(q, multiple=True))
        elif len(f) > 3:
            higher.append((None, None, dup_monic(f, QQ)))
    fields = (QQ.algebraic_field((quadratic[r], sp.radsimp(r)))
              for r in sp.ordered(quadratic))
    return ([(QQ, z, [QQ.one, -z]) for z in sorted(rational)]
            + [(K, K.unit, K.mod.to_list()) for K in fields] + higher)


def _c_kernel(P: list, m: int, f: list) -> list:
    """The kernel of sum_i z^i P_i(x) C(x + m*i) = 0 for C, the P_i dense
    over Q and z a root of f, monic and irreducible over Q of degree e:
    by sigma^(m*i) = sum_j binomial(i, j) Delta_m^j, the
    :func:`ddsolve.ratsol.ansatz_kernel` of sum_j R_j Delta_m^j C,
    R_j = sum_{i >= j} binomial(i, j) z^i P_i as e x e regular
    representations over Q[theta]/(f), theta -> z, cleared to Z[x].
    Column dg*e + k of a vector is the coefficient of theta^k x^dg."""
    e = len(f) - 1

    def times_theta(a, k):
        return dup_rem(dup_lshift(a, k, QQ), f, QQ)

    powers = [[QQ.one]]                 # z^i, reduced
    for _ in P[1:]:
        powers.append(times_theta(powers[-1], 1))
    regs = [regular_rows([zi], (1, 1), e, times_theta, QQ.zero)
            for zi in powers]
    # over Z: the z^i times one integer, the P_i times another
    dz = lcm(*(c.denominator for reg in regs for row in reg for c in row))
    dp = lcm(*(c.denominator for p in P for c in p))
    P = [_X_RING.from_list([int(c * dp) for c in p]) for p in P]
    return ansatz_kernel([DomainMatrix([[sum(
        (P[i] * int(comb(i, j) * regs[i][r][col] * dz)
         for i in range(j, len(P))), _X_RING.zero) for col in range(e)]
        for r in range(e)], (e, e), _X_DOMAIN) for j in range(len(P))], m, e)


def _times(p: list, factors: list, K) -> list:
    for f in factors:
        p = dup_mul(p, f, K)
    return p


def _check_ratio(ps: list, m: int, K, num: list, den: list):
    """VerificationError unless r = num/den solves the recurrence:
    sum_i p_i(x) prod_{j<i} num(x+jm) prod_{i<=j<k} den(x+jm) = 0."""
    N, D = ([dup_shift(f, K(j * m), K) for j in range(len(ps) - 1)]
            for f in (num, den))
    resid = []
    for i, p in enumerate(ps):
        p = _times(dup_convert(p, QQ, K), N[:i] + D[i:], K)
        resid = dup_add(resid, p, K)
    if resid:
        raise VerificationError(
            "hypergeometric ratio failed substitution check")


def hyper_ratios(ps: list, m: int = 1) -> list:
    """All rational ratios r with a nonzero solution of
    sum_i p_i(x) y(x + m*i) = 0 satisfying sigma^m(y) = r*y, the p_i dense
    polynomials over Q (see :func:`recurrence_polys`), not all zero.

    Each r is returned as (K, num, den), r = num/den with num and den
    dense over K, checked by substitution into the recurrence.  Constants
    are searched in Q and quadratic extensions of Q; UnsupportedCase when
    a constant of higher degree has a polynomial C (:func:`_c_kernel`)."""
    # drop zero coefficients at both ends: if p_0 = ... = p_{i0-1} = 0,
    # rewrite in x - m*i0 so that the trailing coefficient is nonzero
    nonzero = [i for i, p in enumerate(ps) if p]
    i0 = nonzero[0]
    ps = [dup_shift(p, QQ(-m * i0), QQ) for p in ps[i0:nonzero[-1] + 1]]
    k = len(ps) - 1             # k = 0: the leading constant has no roots

    def with_shifts(divisors):
        return [(f, [dup_shift(f, QQ(j * m), QQ) for j in range(k)])
                for f in divisors]

    found = []                  # (K, numerator, denominator of r)
    roots_of = {}               # leading polynomial -> _leading_roots
    bs = with_shifts(_monic_divisors(dup_shift(ps[k], QQ(-(k - 1) * m), QQ)))
    for a, A in with_shifts(_monic_divisors(ps[0])):
        for b, B in bs:
            # P_i = p_i * a(x) ... a(x+(i-1)m) * b(x+im) ... b(x+(k-1)m);
            # a and b are monic, so degree and leading coefficient of P_i
            # come without the product
            pdeg = [dup_degree(p) + i * dup_degree(a)
                    + (k - i) * dup_degree(b) if p else -1
                    for i, p in enumerate(ps)]
            top = max(pdeg)
            lead = tuple(dup_strip([p[0] if dg == top else QQ.zero
                                    for dg, p in zip(reversed(pdeg),
                                                     reversed(ps))]))
            if lead not in roots_of:
                roots_of[lead] = _leading_roots(list(lead))
            if not roots_of[lead]:
                continue
            P = [_times(p, A[:i] + B[i:], QQ) for i, p in enumerate(ps)]
            kernels = {}        # conjugate roots share f and its kernel
            for K, z, f in roots_of[lead]:
                key = tuple(f)
                if key not in kernels:
                    kernels[key] = _c_kernel(P, m, f)
                null, e = kernels[key], len(f) - 1
                if not null:
                    continue
                if K is None:
                    raise UnsupportedCase(
                        f"hypergeometric constant of degree {e}, a root of "
                        f"{sp.Poly(f, sp.Symbol('z'), domain=QQ).as_expr()}")
                # all ones when every equation is zero, else the first
                # kernel vector, read in K
                C = ([K.one] * (len(null) // e) if len(null) == len(null[0])
                     else dup_strip([sum((K(null[0][dg * e + j]) * z**j
                                          for j in range(e)), K.zero)
                                     for dg in reversed(range(
                                         len(null[0]) // e))]))
                num = _times([z], [dup_convert(a, QQ, K),
                                   dup_shift(C, K(m), K)], K)
                den = dup_mul(dup_convert(b, QQ, K), C, K)
                if any(K2 == K and dup_mul(num, d2, K) == dup_mul(n2, den, K)
                       for K2, n2, d2 in found):
                    continue
                _check_ratio(ps, m, K, num, den)
                found.append((K, num, den))
    return found


def ratio_expr(K, num: list, den: list) -> sp.Expr:
    """The ratio (K, num, den) of :func:`hyper_ratios` as an expression."""
    n, d = (sp.Poly(p, x, domain=K).as_expr() for p in (num, den))
    return sp.radsimp(sp.cancel(n / d))


def petkovsek(pcoeffs, m: int = 1) -> list:
    """:func:`hyper_ratios` on coefficients given as expressions, the
    ratios as expressions (see :func:`recurrence_polys`)."""
    return [ratio_expr(*r) for r in hyper_ratios(recurrence_polys(pcoeffs), m)]


# ---------------------------------------------------------------------------
# hypergeometric solutions of systems

def system_hypergeometric(M: DomainMatrix, m: int = 1):
    """Hypergeometric solution candidates (W, r) of sigma^m(Y) = MY over
    Q(x), M a K-form: chain operators -> Hyper ratios -> rational
    back-substitution, every candidate verified.

    With r = sigma^m(g)/g * lambda, lambda standard, the candidate stands
    for the solution g W h, sigma^m(h) = lambda h.  A lambda with
    lambda/lambda_1 = sigma^m(q)/q for the lambda_1 of an earlier group
    joins that group, its solution written q g W h_1 with
    sigma^m(h_1) = lambda_1 h_1.  A vector in the constant span of the
    earlier ones of its group adds nothing and is dropped."""
    ratios = {}                 # r in K, in the order Hyper finds them
    for op in scalar_operators(M, m):
        # the entries of op are in Q[x]: drop t from their numerators
        for K, num, den in hyper_ratios([[QQ(a, c.denom.LC) for a in
                                          c.numer.drop(1).to_dense()]
                                         for c in op.to_list_flat()], m):
            if K != QQ:
                # a quadratic constant: the back-substitution works over K
                raise UnsupportedCase("hypergeometric ratio not in Q(x, t): "
                                      f"{ratio_expr(K, num, den)}")
            ratios.setdefault(dense_fraction(QQ_XT, num, den))
    if not ratios:
        return []
    # (M/r)^-1 = r M^-1: one inverse for the rational solves of all
    # ratios, and M and M^-1 cleared once, each scaled per ratio
    Mc, Mc_inv = dm_cleared(M), dm_cleared(dm_inv(M))
    groups = []                 # (lambda_1, the kept g W of its class)
    out = []
    for r in ratios:
        sd = standard_decompose(r, m)
        lam, g = sd.standard_part, sd.g
        for lam1, span in groups:
            sq = standard_decompose(lam / lam1, m)
            if sq.standard_part == QQ_XT.one:
                lam, g = lam1, g * sq.g
                break
        else:
            span = []
            groups.append((lam, span))
        # sigma^m(W) r = M W is the substitution check rational_solutions
        # made on P and u, W = P/u
        for W in rational_solutions(Mc.scale(r.denom, r.numer),
                                    Mc_inv.scale(r.numer, r.denom), m,
                                    TRIVIAL_TOWER):
            gW = W.mul(g)
            kept = _constant_span_reduce(span + [gW], TRIVIAL_TOWER)
            if len(kept) > len(span):
                span.append(gW)
                out.append(HypergeometricCandidate(W, r, lam, m))
    return out


# ---------------------------------------------------------------------------
# hyperexponential solutions of delta(Y) = Bhat Y over Q(t).  Bhat is an
# x-free K-form; poles, values at infinity and the rational ansatz are
# read on it over Q(t)

_T = QQ_T.gens[0]                   # t in Q(t)
_T_RING = QQ_T.field.ring           # Z[t]
_T_POLY = _T_RING.gens[0]           # t in Z[t]


def _simple_poles(C: DomainMatrix) -> list:
    """(a, residue matrix of C at t = a) for each finite pole a of the
    matrix C over Q(t), ordered as the primitive factors q*t - p of
    factor_list on an expression (by q, then -p); UnsupportedCase when a
    pole is not simple and rational."""
    poles = []
    for f, mult in C.clear_denoms()[0].element.factor_list()[1]:
        if mult > 1 or f.degree() != 1:
            raise UnsupportedCase("finite pole not simple and rational")
        poles.append(QQ(-f.coeff(1), f.LC))
    poles.sort(key=lambda a: (a.denominator, -a.numerator))
    return [(a, C.mul(_T - a).applyfunc(
        lambda c: QQ_T(t_value(c.numer, a) / t_value(c.denom, a))))
        for a in poles]


def _at_infinity(C: DomainMatrix):
    """The value at t = infinity of the matrix C over Q(t), read from the
    degrees of numerator and denominator of each entry; None when an
    entry grows there."""
    if any(c.numer.degree() > c.denom.degree() for c in C.to_list_flat()):
        return None
    return C.applyfunc(lambda c: QQ_T(QQ(c.numer.LC, c.denom.LC))
                       if c.numer.degree() == c.denom.degree()
                       else QQ_T.zero)


def _rational_eigenvalues(R: DomainMatrix) -> list:
    """The distinct eigenvalues in Q of the constant matrix R over Q(t),
    ascending."""
    roots = (-f.rep.to_list()[1] for f, _ in charpoly_factors(R)
             if f.degree() == 1)
    return sorted({QQ(r.numer.LC, r.denom.LC) for r in roots})


def _first_per_integer_class(lams: list) -> list:
    """The first of each class of lams modulo the integers.  Exponents at
    a pole that differ by an integer k give the same hyperexponential
    solutions, up to the rational factor (t - a)^k that the rational
    solutions of the ansatz absorb."""
    out = []
    for lam in lams:
        if all((lam - mu).denominator != 1 for mu in out):
            out.append(lam)
    return out


def _eigen_candidates(C: DomainMatrix) -> list:
    """The candidates of the constant K-form C: each eigenvalue over Q(t),
    or over the tower of an irreducible factor of the characteristic
    polynomial, with one eigenvector per kernel vector of C - lam*I over
    its tower (see fields.kernel)."""
    n = C.shape[0]
    pairs = []
    for f, _ in charpoly_factors(C):
        coeffs = [QQ_XT.convert_from(c, QQ_T) for c in f.rep.to_list()]
        if f.degree() == 1:
            pairs.append((dup_strip([-coeffs[1]]), TRIVIAL_TOWER))
        else:
            tower = tower_from_modulus(coeffs)
            pairs.extend((conj, tower) for conj in tower.conjugates())
    out = []
    for lam, tower in pairs:
        e = tower.degree
        N = kernel(dm_embed(C, tower) - dm_diag([lam] * n, tower)).transpose()
        out.extend(HyperexpCandidate(
            N.extract(range(n * e), range(j * e, (j + 1) * e)), lam, tower)
            for j in range(N.shape[1] // e))
    return out


def _diff_rational_solutions(C: DomainMatrix) -> list:
    """Rational solutions of delta(V) = C V, C over Q(t) with at most
    simple rational finite poles, as K-forms.

    A pole a of V has order at most the largest -l over the negative
    integer eigenvalues l of the residue of C at a, which gives the
    denominator den of V.  With C = N/d, the numerators P = den V solve
    P1 P' + P0 P = 0, P1 = d den and P0 = -(d den' + den N), which
    :func:`ddsolve.ratsol.ansatz_kernel` solves over Q in the
    coefficients of P, unknowns ordered by (coordinate, degree), its
    degree bound in the monomials t^k (c = 1, s = 0)."""
    n = C.shape[0]
    den_q = [QQ.one]                 # den, dense over Q
    for a, R in _simple_poles(C):
        den_q = dup_mul(den_q, dup_pow([QQ.one, -a], max([0] + [
            -int(lam) for lam in _rational_eigenvalues(R)
            if lam.denominator == 1 and lam < 0]), QQ), QQ)
    # an integer multiple of den over Z[t] gives the same P up to scale
    den = _T_RING.from_list(dup_clear_denoms(den_q, QQ, ZZ, convert=True)[1])
    d, N = C.clear_denoms(convert=True)
    eye, d = DomainMatrix.eye(n, N.domain), d.element
    P1 = eye.mul(d * den)
    P0 = -(eye.mul(d * den.diff(_T_POLY)) + N.mul(den))
    out = []
    for vec in ansatz_kernel([P0, P1], 0):
        b = len(vec) // n
        out.append(DomainMatrix([[QQ_XT.convert_from(dense_fraction(
            QQ_T, vec[i * b:(i + 1) * b][::-1], den_q), QQ_T)]
            for i in range(n)], (n, 1), QQ_XT))
    return out


def hyperexp_solutions(Bhat: DomainMatrix):
    """Hyperexponential solution candidates of delta(Y) = Bhat * Y over
    Q(t), Bhat an x-free K-form.

    Supported: diagonal Bhat; constant Bhat (eigen-decomposition, possibly
    over a tower); Bhat with simple rational finite poles and a finite
    value at infinity, whose certificates are mu + sum lam_a/(t - a) over
    the rational eigenvalues lam_a of the residues and mu of the value at
    infinity, one residue eigenvalue per class modulo the integers at
    each pole.  Raises UnsupportedCase otherwise.  Each candidate's V is
    the K-form over its tower of the vector part, (n*deg) x deg.
    """
    n = Bhat.shape[0]
    B = dm_over_qt(Bhat)
    if B is None:
        raise UnsupportedCase("matrix must be over Q(t)")
    if Bhat.is_diagonal:
        return [HyperexpCandidate(
            V=DomainMatrix.eye(n, QQ_XT).extract(range(n), [i]),
            certificate=dup_strip([Bhat[i, i].element])) for i in range(n)]
    if all(c.numer.is_ground and c.denom.is_ground
           for c in B.to_dok().values()):
        return _eigen_candidates(Bhat)
    poles = _simple_poles(B)
    Binf = _at_infinity(B)
    if Binf is None:
        raise UnsupportedCase("matrix grows at t = infinity")
    cand_parts = [[(a, lam) for lam in
                   _first_per_integer_class(_rational_eigenvalues(R))]
                  for a, R in poles]
    out = []
    for picks in itertools.product(*cand_parts):
        for mu in _rational_eigenvalues(Binf):
            c = sum((lam / (_T - a) for a, lam in picks), QQ_T(mu))
            cK = QQ_XT.convert_from(c, QQ_T)
            for V in _diff_rational_solutions(
                    B - DomainMatrix.eye(n, QQ_T).mul(c)):
                if not dm_same([(dm_delta_clear(V),), (V, cK)],
                               [(Bhat, V)]):
                    raise VerificationError(
                        "hyperexponential candidate failed substitution "
                        "check")
                out.append(HyperexpCandidate(V=V,
                                             certificate=dup_strip([cK])))
    return out
