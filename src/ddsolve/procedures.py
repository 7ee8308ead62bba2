"""Orchestration: integrability checking, the two decision procedures for
liouvillian solutions of integrable prime-order systems
{sigma(Y) = A Y, delta(Y) = B Y} over Q(x, t), gauge descent, and the
top-level verdict.

Decision procedure 1 looks for a basis of hypergeometric solutions over a
finite extension of Q(x, t): (a) standard-split det A as alpha(x)^n *
beta(t), (b) Moser-reduce A/alpha and demand order 0 at infinity,
(c) classify the leading eigenvalues, (d1) conjugate/split eigenvalues:
diagonalize by a gauge built from rational solutions, (d2) all-equal:
gauge over Q(x, t) and solve the residual hyperexponential system.

Decision procedure 2 works with the sigma^n-compressed system: it detects
the interlacing normal form sigma^n-part beta(t) * diag(lambda(x + j0 + i))
through hypergeometric candidates of a t-specialized system, then
assembles the gauge and reads the diagonal delta-part.  Solutions are
interlacings of hypergeometric vectors, returned with their sigma- and
delta-certificates and lifted to sequences of the original system.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import sympy as sp
from sympy.polys.matrices import DomainMatrix

from .closedform import (HyperexpCandidate, UnsupportedCase,
                         hyperexp_solutions, system_hypergeometric)
from .difftools import (leading_beta, split_alpha_beta_power,
                        standard_decompose)
from .fields import (AllEqual, Conjugate, FieldError, MixedSplit, Split,
                     TRIVIAL_TOWER, Tower, delta, dm_delta, dm_from_matrix,
                     dm_inv, dm_shift, dm_sigma_power, dm_to_matrix,
                     make_tower, mat_delta, mat_inv, mat_reduce, mat_shift,
                     shift, sigma_power_matrix, t, theta, tinv, treduce, x)
from .moser import (MoserReport, ReductionStalled, leading_eigendata,
                    moser_reduce, ord_and_moser)
from .ratsol import (DEFAULT_CONFIG, SolverConfig, _invertible_selection,
                     gauge_from_ratios, rational_solutions)
from .sequences import (HypCert, LiouvilleSolution, VerificationError,
                        first_safe_index, lift_sigma_d_to_sigma,
                        verify_certificates, verify_numeric_window)

__all__ = ["DDSystem", "Outcome", "NormalForm", "check_integrability",
           "sigma_power_matrix", "decision_procedure_1",
           "decision_procedure_2", "descend_gauge", "solve_liouvillian"]


@dataclass
class DDSystem:
    """Integrable system sigma(Y) = A Y, delta(Y) = B Y over Q(x, t)."""
    n: int
    A: sp.Matrix
    B: sp.Matrix
    assume_irreducible: bool = False
    integrability_level: int = 0   # set by validate(): 1 or n

    def validate(self):
        if not sp.isprime(self.n):
            raise ValueError(f"order n = {self.n} must be prime")
        if self.A.shape != (self.n, self.n) or self.B.shape != (self.n, self.n):
            raise ValueError("A and B must be n x n")
        try:
            A = dm_from_matrix(self.A)
            B = dm_from_matrix(self.B)
        except FieldError as err:
            raise ValueError(f"A and B must be over Q(x, t): {err}")
        if A.det() == 0:
            raise ValueError("A must be invertible")
        ok, residual = check_integrability(self.A, self.B)
        if ok:
            self.integrability_level = 1
            return
        # accept systems whose sigma^n-compressed companion is integrable:
        # every certificate emitted downstream is verified against the
        # sigma^n- and delta-relations, which are exactly the ones that hold
        An = dm_sigma_power(self.A, self.n)
        if _integrability_residual(An, B, self.n) is None:
            self.integrability_level = self.n
            return
        raise ValueError(f"integrability fails; residual = {residual}")


@dataclass
class NormalForm:
    """Diagonal normal form data.

    DP1: sigma-part diag(alpha * beta_i), delta-part diag(cs_or_bhats[i] +
    (delta beta_i / beta_i) x collapsed into the full delta ratios).
    DP2: sigma^n-part beta * diag(lam(x + j0 + i)), delta-part
    diag((delta beta/(n beta)) x + bhat_i)."""
    alpha: sp.Expr
    betas: list
    cs_or_bhats: list
    j0: int = 0
    ell: int = 1
    tower: Tower = TRIVIAL_TOWER


@dataclass
class Outcome:
    kind: str                      # Solved | NoSolution | Unsupported |
                                   # NoLiouvillianSolutions | Inconclusive
    provenance: str = ""           # DP1 | DP2
    stage: str = ""                # exit stage for NoSolution
    reason: str = ""
    solutions: list = field(default_factory=list)
    normal_form: Optional[NormalForm] = None
    report: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------

def check_integrability(A: sp.Matrix, B: sp.Matrix):
    """Exact test of sigma(B) = delta(A) A^{-1} + A B A^{-1} over
    K = Q(x, t).

    Returns (ok, residual matrix).  FieldError when A is singular or an
    entry lies outside K."""
    residual = _integrability_residual(dm_from_matrix(A), dm_from_matrix(B), 1)
    if residual is None:
        return True, sp.zeros(*B.shape)
    return False, residual


def _integrability_residual(Am: DomainMatrix, B: DomainMatrix, m: int):
    """sigma^m(B) - delta(Am) Am^{-1} - Am B Am^{-1} over K: None when it
    vanishes, else its entries in the canonical form of treduce."""
    R = dm_shift(B, m) - (dm_delta(Am) + Am * B) * dm_inv(Am)
    return None if R.is_zero_matrix else dm_to_matrix(R)


def _diag_offenders(M: sp.Matrix, tower: Tower):
    n = M.shape[0]
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and treduce(M[i, j], tower) != 0]


def _gauge_delta_part(G: sp.Matrix, B: sp.Matrix, tower: Tower) -> sp.Matrix:
    """B-bar = G^{-1} B G - G^{-1} delta(G)."""
    Ginv = mat_inv(G, tower)
    return mat_reduce(Ginv * B * G - Ginv * mat_delta(G, tower), tower)


def _certificate_normalizer(c, tower: Tower = TRIVIAL_TOWER):
    """sigma-constant gamma(t) whose log-derivative strips integer residues
    from a delta-certificate.

    Rescaling a solution column by gamma(t) shifts its delta-certificate
    by -delta(gamma)/gamma, so certificates are canonical only modulo
    logarithmic derivatives of rational functions of t.  The normal form
    chosen here removes every integer residue at a rational point from
    the x-free, theta-free additive part of the certificate (the analogue
    of shift-quotient standardization on the delta side)."""
    one = sp.Integer(1)
    c0 = sp.expand(treduce(c, tower)).coeff(theta, 0)
    num, den = sp.together(c0).as_numer_denom()
    if x in den.free_symbols or theta in num.free_symbols:
        return one
    if x in num.free_symbols:
        c0 = sp.cancel(sp.Poly(sp.expand(num), x).nth(0) / den)
    dnum, dden = sp.cancel(c0).as_numer_denom()
    try:
        P = sp.Poly(dden, t, domain=sp.QQ)
    except sp.PolynomialError:
        return one
    gamma = one
    for fac, mult in P.factor_list()[1]:
        if fac.degree() != 1 or mult != 1:
            continue
        a = sp.Rational(-fac.nth(0), fac.nth(1))
        res = sp.cancel(dnum * (t - a) / dden).subs(t, a)
        if res.is_Integer and res != 0:
            gamma = gamma * (t - a) ** int(res)
    return gamma


def _normalize_gauge_certificates(G: sp.Matrix, Bbar: sp.Matrix, tower: Tower):
    """Rescale each gauge column so its delta-certificate is residue-normal."""
    for i in range(G.shape[1]):
        gam = _certificate_normalizer(Bbar[i, i], tower)
        if gam != 1:
            G[:, i] = mat_reduce(G[:, i] * gam, tower)
            Bbar[i, i] = treduce(Bbar[i, i] - delta(gam) / gam, tower)


# ---------------------------------------------------------------------------
# decision procedure 1

def decision_procedure_1(sys: DDSystem,
                         config: SolverConfig = DEFAULT_CONFIG) -> Outcome:
    """Hypergeometric fundamental-system search for the sigma-system."""
    n, A, B = sys.n, sys.A, sys.B
    stages = []
    report = {"stages": stages}

    # (a) det A = sigma(g)/g * a with a standard; a must be alpha^n * beta
    stages.append("a")
    detA = treduce(A.det(method="berkowitz"))
    sd = standard_decompose(detA, 1)
    split = split_alpha_beta_power(sd.standard_part, n)
    if split is None:
        return Outcome("NoSolution", "DP1", "a",
                       "standard part of det A is not of the form "
                       "alpha(x)^n * beta(t)", report=report)
    alpha, _beta_det = split
    report["alpha"] = alpha

    # (b) Moser-reduce A/alpha; order at infinity must be 0
    stages.append("b")
    Abar = mat_reduce(A / alpha)
    try:
        mos: MoserReport = moser_reduce(Abar)
    except ReductionStalled as err:
        return Outcome("Unsupported", "DP1", "b", str(err), report=report)
    ordA, _, _ = ord_and_moser(mos.reduced)
    if ordA != 0:
        return Outcome("NoSolution", "DP1", "b",
                       f"reduced matrix has order {ordA} != 0 at infinity",
                       report=report)

    # (c) classify the eigenvalue multiset of the leading matrix
    stages.append("c")
    eig = leading_eigendata(mos.leading, n)
    report["beta_classification"] = eig
    if isinstance(eig, MixedSplit):
        return Outcome("NoSolution", "DP1", "c",
                       "leading eigenvalues neither conjugate nor all "
                       "equal nor fully split", report=report)

    if isinstance(eig, (Conjugate, Split)):
        stages.append("d1")
        return _dp1_stage_d1(sys, alpha, eig, report, config)
    stages.append("d2")
    return _dp1_stage_d2(sys, alpha, eig.root, report, config)


def _conjugate_matrix(M: sp.Matrix, conj, tower: Tower) -> sp.Matrix:
    return M.applyfunc(lambda e: treduce(sp.sympify(e).subs(theta, conj), tower))


def _dp1_stage_d1(sys: DDSystem, alpha, eig, report: dict,
                  config: SolverConfig) -> Outcome:
    n, A, B = sys.n, sys.A, sys.B
    if isinstance(eig, Conjugate):
        mp = eig.minpoly.subs(sp.Symbol("Y"), theta)
        tower = make_tower(mp)
        betas = tower.conjugates()
        report["beta_minpoly"] = sp.expand(mp)
        if len(betas) != n:
            return Outcome("Unsupported", "DP1", "d1",
                           "splitting field required: not all conjugate "
                           "eigenvalues lie in the degree-n tower",
                           report=report)
        # one rational solve; the remaining columns are conjugates
        M0 = mat_reduce(A * tinv(alpha * betas[0], tower), tower)
        basis = rational_solutions(M0, 1, tower, config).basis
        if not basis:
            return Outcome("NoSolution", "DP1", "d1",
                           "no rational solution for the ratio alpha*beta_1",
                           report=report)
        columns = [basis]
        for b in betas[1:]:
            columns.append([_conjugate_matrix(V, b, tower) for V in basis])
        G = _invertible_selection(columns, tower)
    else:  # Split over Q(t)
        tower = TRIVIAL_TOWER
        betas = [treduce(r) for r in eig.roots]
        G = gauge_from_ratios(A, [treduce(alpha * b) for b in betas],
                              1, tower, config)
    if G is None:
        return Outcome("NoSolution", "DP1", "d1",
                       "rational solutions exist but assemble to no "
                       "invertible gauge", report=report)
    ratios = [treduce(alpha * b, tower) for b in betas]
    lhs = mat_shift(G) * sp.diag(*ratios) - A * G
    if not all(treduce(e, tower) == 0 for e in lhs):
        raise VerificationError("gauge identity violated")
    Bbar = _gauge_delta_part(G, B, tower)
    off = _diag_offenders(Bbar, tower)
    if off:
        return Outcome("NoSolution", "DP1", "d1",
                       f"delta-part not diagonal at {off}", report=report)
    _normalize_gauge_certificates(G, Bbar, tower)
    report["G"] = G
    report["Bbar"] = Bbar
    cs = [treduce(Bbar[i, i] - delta(betas[i], tower) / betas[i] * x, tower)
          for i in range(n)]
    nf = NormalForm(alpha=alpha, betas=betas, cs_or_bhats=cs, ell=1,
                    tower=tower)
    sols = []
    for i in range(n):
        cert = HypCert(sigma_ratio=ratios[i], sigma_step=1,
                       delta_ratio=treduce(Bbar[i, i], tower))
        sols.append(LiouvilleSolution(kind="Hypergeometric", W=G[:, i],
                                      cert=cert, tower=tower))
    return Outcome("Solved", "DP1", solutions=sols, normal_form=nf,
                   report=report)


def _dp1_stage_d2(sys: DDSystem, alpha, beta1, report: dict,
                  config: SolverConfig) -> Outcome:
    n, A, B = sys.n, sys.A, sys.B
    ratio = treduce(alpha * beta1)
    M0 = mat_reduce(A * tinv(ratio))
    basis = rational_solutions(M0, 1, TRIVIAL_TOWER, config).basis
    G = _invertible_selection([basis] * n, TRIVIAL_TOWER) if basis else None
    if G is None:
        return Outcome("NoSolution", "DP1", "d2",
                       "no invertible gauge with ratio alpha*beta over "
                       "Q(x, t)", report=report)
    Bbar = _gauge_delta_part(G, B, TRIVIAL_TOWER)
    Bhat = mat_reduce(Bbar - delta(beta1) / beta1 * x * sp.eye(n))
    if x in Bhat.free_symbols:
        return Outcome("NoSolution", "DP1", "d2",
                       "residual delta-part is not over Q(t)", report=report)
    report["G"] = G
    report["Bhat"] = Bhat
    try:
        cands = hyperexp_solutions(Bhat)
    except UnsupportedCase as err:
        return Outcome("Unsupported", "DP1", "d2", str(err), report=report)
    indep = _independent_candidates(cands, n)
    if indep is None:
        return Outcome("NoSolution", "DP1", "d2",
                       "residual system has no hyperexponential fundamental "
                       "matrix", report=report)
    sols = []
    towers = [c.tower for c in indep]
    sol_tower = next((tw for tw in towers if not tw.trivial), TRIVIAL_TOWER)
    cs = []
    for c in indep:
        W = mat_reduce(G * c.V, c.tower)
        dr = treduce(c.certificate + delta(beta1) / beta1 * x, c.tower)
        cs.append(c.certificate)
        cert = HypCert(sigma_ratio=ratio, sigma_step=1, delta_ratio=dr)
        sols.append(LiouvilleSolution(kind="Hypergeometric", W=W, cert=cert,
                                      tower=c.tower))
    nf = NormalForm(alpha=alpha, betas=[beta1] * n, cs_or_bhats=cs, ell=1,
                    tower=sol_tower)
    return Outcome("Solved", "DP1", solutions=sols, normal_form=nf,
                   report=report)


def _independent_candidates(cands, n):
    """n hyperexponential candidates with independent vectors, or None.

    Independence is only meaningful per tower; candidates from different
    certificate values are automatically independent, so a greedy scan
    over exact column ranks suffices at this scale."""
    chosen = []
    for c in cands:
        trial = chosen + [c]
        cols = sp.Matrix.hstack(*[cc.V for cc in trial])
        tw = next((cc.tower for cc in trial if not cc.tower.trivial),
                  TRIVIAL_TOWER)
        if cols.rank(iszerofunc=lambda e: treduce(e, tw) == 0) == len(trial):
            chosen = trial
        if len(chosen) == n:
            return chosen
    return None


# ---------------------------------------------------------------------------
# decision procedure 2

def decision_procedure_2(sys: DDSystem,
                         config: SolverConfig = DEFAULT_CONFIG) -> Outcome:
    """Interlaced-hypergeometric search for the sigma^n-compressed system."""
    n, A, B = sys.n, sys.A, sys.B
    stages = []
    report = {"stages": stages}
    An = sigma_power_matrix(A, n)
    report["An"] = An

    # (a) det A = (-1)^{n-1} sigma(g)/g alpha(x) beta(t)
    stages.append("a")
    detA = treduce(A.det(method="berkowitz"))
    sd = standard_decompose(detA, 1)
    std = treduce(sd.standard_part * sp.Integer(-1) ** (n - 1))
    num, den = std.as_numer_denom()
    if (num.free_symbols - {x, t}) or (den.free_symbols - {x, t}):
        return Outcome("NoSolution", "DP2", "a",
                       "det A does not split as alpha(x) * beta(t)",
                       report=report)
    if not _splits_x_t(std):
        return Outcome("NoSolution", "DP2", "a",
                       "det A does not split as alpha(x) * beta(t)",
                       report=report)

    # (b) beta from the leading series coefficient; specialize t = p
    stages.append("b")
    beta = leading_beta(detA, n)
    if beta == 0 or (beta.free_symbols - {t}):
        return Outcome("NoSolution", "DP2", "b",
                       "leading coefficient of det A is not a nonzero "
                       "element of Q(t)", report=report)
    report["beta"] = beta
    Atil = mat_reduce(An * tinv(beta))
    spec = _specialization_point(Atil)
    if spec is None:
        return Outcome("Unsupported", "DP2", "b",
                       "no valid specialization point among the first 50 "
                       "candidates", report=report)
    p, A0 = spec
    report["specialization_point"] = int(p)
    report["A0"] = A0

    # (c) hypergeometric candidates of the specialized sigma^n-system
    stages.append("c")
    cands = system_hypergeometric(A0, n, config)
    if not cands:
        return Outcome("NoSolution", "DP2", "c",
                       "specialized sigma^n-system has no hypergeometric "
                       "solutions", report=report)
    lams = []
    for c in cands:
        lam = sp.cancel(standard_decompose(c.ratio, n).standard_part)
        if not any(sp.cancel(lam - l2) == 0 for l2 in lams):
            lams.append(lam)
    lams.sort(key=sp.default_sort_key)
    report["candidate_ratios"] = lams

    # (d) least shift j0 with a rational sigma^n-solution, then the gauge.
    # Existence is periodic in j0 with period n (the systems for j0 and
    # j0 + n are equivalent through the rational factor lambda(x + j0)),
    # so scanning 0 <= j0 < n is exhaustive.
    stages.append("d")
    for lam in lams:
        for j0 in range(n):
            ratios = [treduce(beta * shift(lam, j0 + i)) for i in range(n)]
            G = gauge_from_ratios(An, ratios, n, TRIVIAL_TOWER, config)
            if G is None:
                continue
            Bbar = _gauge_delta_part(G, B, TRIVIAL_TOWER)
            off = _diag_offenders(Bbar, TRIVIAL_TOWER)
            if off:
                return Outcome("NoSolution", "DP2", "d",
                               f"delta-part not diagonal at {off}",
                               report=report)
            _normalize_gauge_certificates(G, Bbar, TRIVIAL_TOWER)
            report["lambda"] = lam
            report["j0"] = j0
            report["G"] = G
            report["Bbar"] = Bbar
            bhats = [treduce(Bbar[i, i] - delta(beta) / (n * beta) * x)
                     for i in range(n)]
            nf = NormalForm(alpha=lam, betas=[beta] * n, cs_or_bhats=bhats,
                            j0=j0, ell=n)
            sols = []
            for i in range(n):
                cert = HypCert(sigma_ratio=ratios[i], sigma_step=n,
                               delta_ratio=treduce(Bbar[i, i]))
                sols.append(LiouvilleSolution(
                    kind="Interlaced", period=n,
                    components=[(i, G[:, i], cert)]))
            return Outcome("Solved", "DP2", solutions=sols, normal_form=nf,
                           report=report)
    return Outcome("NoSolution", "DP2", "d",
                   "no candidate ratio admits a rational sigma^n-solution "
                   "with an invertible gauge", report=report)


def _splits_x_t(f) -> bool:
    """Does f in Q(x, t) factor as (function of x) * (function of t)?"""
    f = sp.cancel(f)
    num, den = f.as_numer_denom()
    for p in (num, den):
        _, facs = sp.factor_list(sp.expand(p))
        for fac, _mult in facs:
            if x in fac.free_symbols and t in fac.free_symbols:
                return False
    return True


def _specialization_point(Atil: sp.Matrix, cap: int = 50):
    """First rational p (0, 1, -1, 2, -2, ...) with Atil defined at t = p
    and det(Atil|_{t=p}) != 0; returns (p, specialized matrix)."""
    cands = [sp.Integer(0)]
    k = 1
    while len(cands) < cap:
        cands.extend([sp.Integer(k), sp.Integer(-k)])
        k += 1
    for p in cands[:cap]:
        ok = True
        A0 = sp.zeros(*Atil.shape)
        for i in range(Atil.shape[0]):
            for j in range(Atil.shape[1]):
                e = sp.cancel(Atil[i, j])
                numr, denr = sp.fraction(sp.together(e))
                if sp.cancel(denr.subs(t, p)) == 0:
                    ok = False
                    break
                A0[i, j] = sp.cancel(numr.subs(t, p) / denr.subs(t, p))
            if not ok:
                break
        if not ok:
            continue
        if sp.cancel(A0.det(method="berkowitz")) != 0:
            return p, A0
    return None


# ---------------------------------------------------------------------------
# gauge descent and the top-level verdict

def descend_gauge(G: sp.Matrix, A: sp.Matrix, Abar: sp.Matrix,
                  tower: Tower = TRIVIAL_TOWER, m: int = 1) -> sp.Matrix:
    """From a tower-valued gauge with sigma^m(G) A = Abar G, produce one
    over Q(t)(x): write G = sum_i G_i theta^i, form H(lam) = sum_i lam^i G_i
    and return H(c) for the first rational c (0, 1, -1, 2, ...) with
    det H(c) != 0.  Termination: det H(lam) is a nonzero polynomial."""
    if tower.trivial or theta not in G.free_symbols:
        return G
    lam = sp.Dummy("lam")
    H = G.applyfunc(lambda e: treduce(e, tower).subs(theta, lam))
    c = sp.Integer(0)
    k = 0
    while True:
        Hc = H.applyfunc(lambda e: sp.cancel(e.subs(lam, c)))
        if treduce(Hc.det(method="berkowitz")) != 0:
            lhs = mat_reduce(mat_shift(Hc, m) * A - Abar * Hc, tower)
            if not all(treduce(e, tower) == 0 for e in lhs):
                raise VerificationError(
                    "descended gauge lost the intertwining identity")
            return Hc
        k += 1
        c = sp.Integer((k + 1) // 2 * (-1) ** (k + 1))


def solve_liouvillian(sys: DDSystem,
                      config: SolverConfig = DEFAULT_CONFIG) -> Outcome:
    """DP1, then DP2 with sequence lifts; verdicts: Solved,
    NoLiouvillianSolutions (only under the asserted irreducibility),
    Inconclusive when a subsolver restriction was hit."""
    sys.validate()
    level = ("integrable as a sigma-delta system" if sys.integrability_level == 1
             else f"integrable only at the sigma^{sys.integrability_level} level")
    report = {"assumptions": [level], "timings": {}}
    if sys.assume_irreducible:
        report["assumptions"].append(
            "irreducibility over Q(x, t) asserted by the caller")
    t0 = time.time()
    out1 = decision_procedure_1(sys, config)
    report["timings"]["dp1"] = time.time() - t0
    report["dp1"] = {"kind": out1.kind, "stage": out1.stage,
                     "reason": out1.reason, "stages": out1.report.get("stages")}
    if out1.kind == "Solved":
        _verify_solved(sys, out1)
        out1.report.update(report)
        return out1
    if out1.kind == "Unsupported":
        return Outcome("Inconclusive", "DP1", out1.stage,
                       f"restricted subroutine: {out1.reason}", report=report)
    t0 = time.time()
    out2 = decision_procedure_2(sys, config)
    report["timings"]["dp2"] = time.time() - t0
    report["dp2"] = {"kind": out2.kind, "stage": out2.stage,
                     "reason": out2.reason, "stages": out2.report.get("stages")}
    if out2.kind == "Solved":
        _verify_solved(sys, out2)
        lifts = []
        for sol in out2.solutions:
            i, W, cert = sol.components[0]
            lifts.append(lift_sigma_d_to_sigma(
                W, cert.sigma_ratio, sys.n, sys.A, sys.B))
        out2.report["lifts"] = lifts
        out2.report.update(report)
        return out2
    if out2.kind == "Unsupported":
        return Outcome("Inconclusive", "DP2", out2.stage,
                       f"restricted subroutine: {out2.reason}", report=report)
    return Outcome("NoLiouvillianSolutions", "DP1+DP2",
                   reason="both decision procedures exclude a liouvillian "
                          "basis; valid under the declared assumptions",
                   report=report)


def _verify_solved(sys: DDSystem, out: Outcome):
    for sol in out.solutions:
        res = verify_certificates(sys, sol)
        if not res.ok:
            raise VerificationError(
                f"certificate verification failed: {res.failures}")
    t0 = _first_verification_point(sys)
    for sol in out.solutions:
        res = verify_numeric_window(sys, sol, t0, terms=30)
        if not res.ok:
            raise VerificationError(
                f"numeric verification failed: {res.failures}")
    out.report["verification"] = f"30-term numeric window at t = {t0}"


def _first_verification_point(sys: DDSystem):
    for k in [1, 2, 3, 5, 7]:
        p = sp.Integer(k)
        ok = True
        for e in list(sys.A) + list(sys.B):
            den = sp.fraction(sp.together(sp.cancel(e)))[1]
            if sp.cancel(den.subs(t, p)) == 0:
                ok = False
                break
        if ok:
            return p
    return sp.Integer(1)
