"""Orchestration: integrability checking, the two decision procedures for
liouvillian solutions of integrable prime-order systems
{sigma(Y) = A Y, delta(Y) = B Y} over Q(x, t), and the top-level verdict.

Decision procedure 1 looks for a basis of hypergeometric solutions over a
finite extension of Q(x, t): (a) standard-split det A as alpha(x)^n *
beta(t), (b) Moser-reduce A/alpha and demand order 0 at infinity,
(c) classify the leading eigenvalues, (d1) conjugate/split eigenvalues:
diagonalize by a gauge built from rational solutions, (d2) all-equal:
gauge over Q(x, t) and solve the residual hyperexponential system.

Decision procedure 2 works with the sigma^n-compressed system: it detects
the interlacing normal form sigma^n-part beta(t) * diag(lambda(x + j0 + i))
through hypergeometric candidates of a t-specialized system, then
assembles the gauge and reads the diagonal delta-part.  Its stage c takes
the candidates of the specialized sigma^n-system, one per sigma^n-class
of standard parts lambda and constant span
(closedform.system_hypergeometric), and reads lambda off them.
Solutions are interlacings of hypergeometric vectors, returned with their
sigma- and delta-certificates and lifted to sequences of the original
system.

The gauge G, the identity sigma^m(G) diag(r) = A G, the delta-part
B-bar = G^-1 B G - G^-1 delta(G) and the residue normal form of the
certificates are formed on K-forms (see :mod:`ddsolve.fields`), from the
ones of A and B a :class:`DDSystem` holds, and so are DP2's specialized
system and its ratios beta * lambda(x + j0 + i).  A solution's part is a
column of G with its ratio and diagonal entry of B-bar, as K-forms; no
expression is converted into K inside a solve, and the report and the
:class:`NormalForm` are formed once, from K, as expressions.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Optional

import sympy as sp
from sympy import QQ
from sympy.polys.densearith import dup_add
from sympy.polys.densebasic import dup_strip
from sympy.polys.matrices import DomainMatrix

from .closedform import (UnsupportedCase, hyperexp_solutions,
                         system_hypergeometric)
from .difftools import (StandardDecomposition, leading_beta,
                        split_alpha_beta_power, standard_decompose)
from .fields import (QQ_T, QQ_XT, Conjugate, FieldError, MixedSplit, Split,
                     TRIVIAL_TOWER, Tower, TowerArithmetic, dm_clear,
                     dm_conjugate, dm_delta, dm_delta_part, dm_diag,
                     dm_embed, dm_from_matrix, dm_inv, dm_over_qt, dm_same,
                     dm_shift, dm_sigma_power, dm_to_matrix, element_expr,
                     from_regular, k_shift, t_value, tower_from_modulus)
from .moser import (MoserReport, ReductionStalled, leading_eigendata,
                    moser_reduce)
from .ratsol import (_invertible_selection, gauge_from_ratios,
                     rational_solutions)
from .sequences import (CompiledMatrix, LiouvilleSolution, Part,
                        PointEvaluator, VerificationError, first_regular_index,
                        first_safe_index, lift_sigma_d_to_sigma,
                        verify_certificates, verify_numeric_window)

__all__ = ["DDSystem", "Outcome", "NormalForm", "check_integrability",
           "decision_procedure_1", "decision_procedure_2",
           "solve_liouvillian", "verification_point_fault"]

# x and t in the ring Z[x, t] of K's numerators, and in K
_X, _T = QQ_XT.field.ring.gens
_XK, _TK = QQ_XT.gens
# Q[x, t] and t in it, where a denominator is evaluated at a rational t
_Q_XT_RING = QQ_XT.field.ring.clone(domain=QQ)
_Q_T = _Q_XT_RING.gens[1]


@dataclass
class DDSystem:
    """Integrable system sigma(Y) = A Y, delta(Y) = B Y over Q(x, t).

    The forms over K derived from A and B (:attr:`A_K`, :attr:`B_K`,
    :attr:`det_K`, :attr:`det_standard`, the cocycles of :meth:`cocycle`
    and their inverses, :meth:`cocycle_inverse`) are computed on first use
    and kept, so each is formed once per system: validation, stage a of
    both procedures and the lifts' pole scan read the one det A, and every
    rational solve of sigma^m(W) = (A_m/r) W gets the inverse its
    universal denominator reads as r A_m^-1.  A and B are not modified
    after construction."""
    n: int
    A: sp.Matrix
    B: sp.Matrix
    assume_irreducible: bool = False
    integrability_level: int = 0   # set by validate(): 1 or n

    @functools.cached_property
    def A_K(self) -> DomainMatrix:
        """A over K; FieldError for an entry outside Q(x, t)."""
        return dm_from_matrix(self.A)

    @functools.cached_property
    def B_K(self) -> DomainMatrix:
        """B over K; FieldError for an entry outside Q(x, t)."""
        return dm_from_matrix(self.B)

    @functools.cached_property
    def det_K(self):
        """det A, an element of K."""
        return self.A_K.det()

    @functools.cached_property
    def det_standard(self) -> StandardDecomposition:
        """det A = sigma(g)/g * a with a standard, which stage a of both
        decision procedures reads."""
        return standard_decompose(self.det_K, 1)

    @functools.cached_property
    def _cocycles(self) -> dict:
        return {}

    def cocycle(self, m: int) -> DomainMatrix:
        """A_m = sigma^{m-1}(A) ... sigma(A) A over K (m >= 1); read, never
        modified, by the certificate check and the numeric window."""
        if m not in self._cocycles:
            self._cocycles[m] = dm_sigma_power(self.A_K, m)
        return self._cocycles[m]

    @functools.cached_property
    def _cocycle_inverses(self) -> dict:
        return {}

    def cocycle_inverse(self, m: int) -> DomainMatrix:
        """A_m^-1 over K (m >= 1), the one inverse of the cocycle."""
        if m not in self._cocycle_inverses:
            self._cocycle_inverses[m] = dm_inv(self.cocycle(m))
        return self._cocycle_inverses[m]

    def validate(self):
        """Check that (A, B) is a system the procedures accept and set
        :attr:`integrability_level`: 1 when sigma(B) A = delta(A) + A B,
        else n when sigma^n(B) A_n = delta(A_n) + A_n B for the cocycle
        A_n.  Both identities are tested fraction-free on cleared
        numerators (see :func:`_integrable`); since A, and so A_n, is
        invertible, each is the integrability condition sigma^m(B) =
        (delta(A_m) + A_m B) A_m^{-1}, whose residual over K is formed
        only for the message when both fail.  ValueError otherwise."""
        if not sp.isprime(self.n):
            raise ValueError(f"order n = {self.n} must be prime")
        if self.A.shape != (self.n, self.n) or self.B.shape != (self.n, self.n):
            raise ValueError("A and B must be n x n")
        try:
            A, B = self.A_K, self.B_K
        except FieldError as err:
            raise ValueError(f"A and B must be over Q(x, t): {err}")
        if self.det_K == 0:
            raise ValueError("A must be invertible")
        if _integrable(A, B, 1):
            self.integrability_level = 1
            return
        # accept systems whose sigma^n-compressed companion is integrable:
        # every certificate emitted downstream is verified against the
        # sigma^n- and delta-relations, which are exactly the ones that hold
        if _integrable(self.cocycle(self.n), B, self.n):
            self.integrability_level = self.n
            return
        raise ValueError("integrability fails; residual = "
                         f"{dm_to_matrix(_integrability_residual(A, B, 1))}")


@dataclass
class NormalForm:
    """Diagonal normal form data.

    DP1: sigma-part diag(alpha * beta_i), delta-part diag(cs[i] +
    (delta beta_i / beta_i) x collapsed into the full delta ratios).
    DP2: sigma^n-part beta * diag(lam(x + j0 + i)), delta-part
    diag((delta beta/(n beta)) x + bhats[i]).  The list of the other
    procedure is empty."""
    alpha: sp.Expr
    betas: list
    cs: list = field(default_factory=list)
    bhats: list = field(default_factory=list)
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

    ok is decided fraction-free, by the test of :meth:`DDSystem.validate`
    on sigma(B) A = delta(A) + A B, which is equivalent for invertible A;
    the residual over K, which needs A^{-1}, is formed only when the test
    fails (the zero matrix otherwise).  Returns (ok, residual matrix).
    FieldError when A is singular or an entry lies outside K."""
    ok, residual = check_integrability_K(dm_from_matrix(A), dm_from_matrix(B))
    return ok, dm_to_matrix(residual)


def check_integrability_K(A_K: DomainMatrix, B_K: DomainMatrix):
    """:func:`check_integrability` on the K-forms of A and B; the residual
    is a K-form."""
    if A_K.det() == 0:
        raise FieldError("matrix not invertible")
    if _integrable(A_K, B_K, 1):
        return True, DomainMatrix.zeros(B_K.shape, QQ_XT)
    return False, _integrability_residual(A_K, B_K, 1)


def _integrable(Am: DomainMatrix, B: DomainMatrix, m: int) -> bool:
    """sigma^m(B) Am = delta(Am) + Am B over K, tested on cleared
    numerators: with Am = N/a and B = M/b (N, M over Q[x, t], a, b in
    Q[x, t]), the identity times a^2 b sigma^m(b) reads
    sigma^m(M) N b a = (delta(N) a - N delta(a)) sigma^m(b) b
    + N M sigma^m(b) a, products of polynomial matrices with no inverse
    and no gcd in the products."""
    a, N = dm_clear(Am)
    b, M = dm_clear(B)
    sb = b.compose(_X, _X + m)
    return (dm_shift(M, m) * N * (b * a)
            == (dm_delta(N) * a - N * a.diff(_T)) * (sb * b)
            + N * M * (sb * a))


def _integrability_residual(Am: DomainMatrix, B: DomainMatrix, m: int):
    """sigma^m(B) - delta(Am) Am^{-1} - Am B Am^{-1} over K."""
    return dm_shift(B, m) - (dm_delta(Am) + Am * B) * dm_inv(Am)


def _diag_offenders(D: DomainMatrix, tower: Tower) -> list:
    """The off-diagonal positions of nonzero entries of the matrix over the
    tower whose K-form is D."""
    n = D.shape[0] // tower.degree
    entries = from_regular(D, tower.degree)
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and entries[i * n + j]]


def _gauge_delta_part(G: DomainMatrix, B: DomainMatrix,
                      tower: Tower) -> DomainMatrix:
    """B-bar = G^{-1} B G - G^{-1} delta(G) on K-forms over the tower,
    formed fraction-free by :func:`~ddsolve.fields.dm_delta_part`."""
    return dm_delta_part(G, B, dm_delta(G, tower))


def _certificate_normalizer(c):
    """sigma-constant gamma in Q(t) whose log-derivative strips integer
    residues from c, the theta^0 coordinate (an element of K) of a
    delta-certificate.

    Rescaling a solution column by gamma(t) shifts its delta-certificate
    by -delta(gamma)/gamma, so certificates are canonical only modulo
    logarithmic derivatives of rational functions of t.  The normal form
    chosen here removes every integer residue at a simple rational pole
    from the x-free part of c, read when the denominator of c is x-free
    (the analogue of shift-quotient standardization on the delta side)."""
    gamma = QQ_XT.one
    if c.denom.degree(_X) > 0:
        return gamma
    c0 = QQ_XT.field.new(c.numer.coeff_wrt(_X, 0), c.denom)
    for fac, mult in c0.denom.factor_list()[1]:
        if mult != 1 or fac.degree(_T) != 1:
            continue
        a = QQ(-fac.coeff(1), fac.coeff(_T))
        res = t_value(c0.numer, a) / (t_value(c0.denom.exquo(fac), a)
                                      * fac.coeff(_T))
        if res and res.denominator == 1:
            gamma *= (QQ_XT.gens[1] - a) ** int(res)
    return gamma


def _normalize_gauge_certificates(G: DomainMatrix, Bbar: DomainMatrix,
                                  tower: Tower):
    """(G, Bbar), K-forms over the tower, with each gauge column rescaled
    by the gamma of its delta-certificate (:func:`_certificate_normalizer`
    on the theta^0 coordinate of the diagonal entry of Bbar).

    The rescaling S = diag(gamma_i) is a gauge by sigma-constants: G
    becomes G S, and the diagonal Bbar becomes S^-1 (Bbar S - delta(S))."""
    deg = tower.degree
    gammas = [_certificate_normalizer(Bbar[i, i].element)
              for i in range(0, Bbar.shape[0], deg)]
    S = DomainMatrix.diag([g for g in gammas for _ in range(deg)], QQ_XT)
    return G * S, _gauge_delta_part(S, Bbar, tower)


# ---------------------------------------------------------------------------
# decision procedure 1

def decision_procedure_1(sys: DDSystem) -> Outcome:
    """Hypergeometric fundamental-system search for the sigma-system."""
    return _unsupported_as_outcome(_decision_procedure_1, sys, "DP1")


def _unsupported_as_outcome(procedure, sys: DDSystem, provenance: str):
    """Run a decision procedure; a subroutine outside its scope
    (UnsupportedCase, ReductionStalled) ends it as Unsupported at the
    current stage."""
    report = {"stages": []}
    try:
        return procedure(sys, report)
    except (UnsupportedCase, ReductionStalled) as err:
        return Outcome("Unsupported", provenance, report["stages"][-1],
                       str(err), report=report)


def _decision_procedure_1(sys: DDSystem, report: dict) -> Outcome:
    n = sys.n
    stages = report["stages"]

    # (a) det A = sigma(g)/g * a with a standard; a must be alpha^n * beta
    stages.append("a")
    split = split_alpha_beta_power(sys.det_standard.divisor, n)
    if split is None:
        return Outcome("NoSolution", "DP1", "a",
                       "standard part of det A is not of the form "
                       "alpha(x)^n * beta(t)", report=report)
    alpha_K = split[0]
    report["alpha"] = QQ_XT.to_sympy(alpha_K)

    # (b) Moser-reduce A/alpha; order at infinity must be 0
    stages.append("b")
    mos: MoserReport = moser_reduce(sys.A_K.mul(QQ_XT.one / alpha_K))
    if mos.ord != 0:
        return Outcome("NoSolution", "DP1", "b",
                       f"reduced matrix has order {mos.ord} != 0 at "
                       "infinity", report=report)

    # (c) classify the eigenvalue multiset of the leading matrix
    stages.append("c")
    eig = leading_eigendata(mos.leading)
    report["beta_classification"] = eig
    if isinstance(eig, MixedSplit):
        return Outcome("NoSolution", "DP1", "c",
                       "leading eigenvalues neither conjugate nor all "
                       "equal nor fully split", report=report)

    if isinstance(eig, (Conjugate, Split)):
        stages.append("d1")
        return _dp1_stage_d1(sys, alpha_K, eig, report)
    stages.append("d2")
    return _dp1_stage_d2(sys, alpha_K, QQ_XT.convert_from(eig.root, QQ_T),
                         report)


def _column_part(G: DomainMatrix, r, Bbar: DomainMatrix, i: int,
                 tower: Tower, m: int = 1, shift=None) -> Part:
    """The :class:`Part` of column i of the gauge G with sigma-ratio r (an
    element of the tower) and delta-ratio the diagonal entry i of its
    delta-part Bbar, G and Bbar K-forms over the tower."""
    block = range(i * tower.degree, (i + 1) * tower.degree)
    return Part(G.extract(range(G.shape[0]), block), dm_diag([r], tower),
                Bbar.extract(block, block), m, shift)


def _dp1_stage_d1(sys: DDSystem, alpha_K, eig, report: dict) -> Outcome:
    n = sys.n
    if isinstance(eig, Conjugate):
        tower = tower_from_modulus(eig.modulus)
        betas = tower.conjugates()
        report["beta_minpoly"] = sp.expand(tower.minpoly)
        if len(betas) != n:
            return Outcome("Unsupported", "DP1", "d1",
                           "splitting field required: not all conjugate "
                           "eigenvalues lie in the degree-n tower",
                           report=report)
        A = dm_embed(sys.A_K, tower)
        ar = TowerArithmetic(tower)
        ratios = [ar.mul([alpha_K], b) for b in betas]
        # one rational solve; the remaining columns are conjugates
        basis = rational_solutions(
            A * dm_diag([ar.inv(ratios[0])] * n, tower),
            dm_diag([ratios[0]] * n, tower)
            * dm_embed(sys.cocycle_inverse(1), tower), 1, tower).basis
        if not basis:
            return Outcome("NoSolution", "DP1", "d1",
                           "no rational solution for the ratio alpha*beta_1",
                           report=report)
        columns = [basis]
        for b in betas[1:]:
            columns.append([dm_conjugate(V, b, tower) for V in basis])
        G = _invertible_selection(columns, tower)
    else:  # Split over Q(t)
        tower = TRIVIAL_TOWER
        A = sys.A_K
        roots = [QQ_XT.convert_from(r, QQ_T) for r in eig.roots]
        betas = [[b] for b in roots]
        ratios = [[alpha_K * b] for b in roots]
        G = gauge_from_ratios(A, sys.cocycle_inverse(1), dm_diag(ratios), 1)
    if G is None:
        # complete: _invertible_selection tries every one-vector-per-slot
        # choice, and a minor of any constant combination per slot is a
        # sum of the same minor over those choices (multilinearity), so
        # no combination is invertible either
        return Outcome("NoSolution", "DP1", "d1",
                       "rational solutions exist but assemble to no "
                       "invertible gauge", report=report)
    if not dm_same([(dm_shift(G), dm_diag(ratios, tower))], [(A, G)]):
        raise VerificationError("gauge identity violated")
    Bbar = _gauge_delta_part(G, dm_embed(sys.B_K, tower), tower)
    off = _diag_offenders(Bbar, tower)
    if off:
        return Outcome("NoSolution", "DP1", "d1",
                       f"delta-part not diagonal at {off}", report=report)
    G, Bbar = _normalize_gauge_certificates(G, Bbar, tower)
    report["G"] = dm_to_matrix(G, tower)
    report["Bbar"] = dm_to_matrix(Bbar, tower)
    sols = [LiouvilleSolution("Hypergeometric", [_column_part(
        G, ratios[i], Bbar, i, tower)], tower) for i in range(n)]
    # c_i = Bbar_ii - delta(beta_i)/beta_i * x, on 1 x 1 K-forms
    cs = []
    for b, sol in zip(betas, sols):
        D = dm_diag([b], tower)
        cs.append(dm_to_matrix(sol.parts[0].c - (dm_delta(D, tower)
                                                 * dm_inv(D)).mul(_XK),
                               tower)[0])
    nf = NormalForm(alpha=report["alpha"],
                    betas=[element_expr(b) for b in betas], cs=cs, ell=1,
                    tower=tower)
    return Outcome("Solved", "DP1", solutions=sols, normal_form=nf,
                   report=report)


def _dp1_stage_d2(sys: DDSystem, alpha_K, beta1, report: dict) -> Outcome:
    n = sys.n
    ratio_K = alpha_K * beta1
    basis = rational_solutions(sys.A_K.mul(QQ_XT.one / ratio_K),
                               sys.cocycle_inverse(1).mul(ratio_K), 1,
                               TRIVIAL_TOWER).basis
    G = _invertible_selection([basis] * n, TRIVIAL_TOWER) if basis else None
    if G is None:
        # complete, by the argument at ratsol._invertible_selection
        return Outcome("NoSolution", "DP1", "d2",
                       "no invertible gauge with ratio alpha*beta over "
                       "Q(x, t)", report=report)
    Bbar = _gauge_delta_part(G, sys.B_K, TRIVIAL_TOWER)
    # delta(beta_1)/beta_1 * x, the delta-ratio of beta_1^x
    dlog = beta1.diff(_TK) / beta1 * _XK
    Bhat = Bbar - DomainMatrix.eye(n, QQ_XT).mul(dlog)
    if dm_over_qt(Bhat) is None:
        return Outcome("NoSolution", "DP1", "d2",
                       "residual delta-part is not over Q(t)", report=report)
    report["G"] = dm_to_matrix(G)
    report["Bhat"] = dm_to_matrix(Bhat)
    cands = hyperexp_solutions(Bhat)
    indep = _independent_candidates(cands, n)
    if indep is None:
        # not a proof: hyperexp_solutions searches only over Q(t) and only
        # some classes of certificates
        return Outcome("Unsupported", "DP1", "d2",
                       "no hyperexponential fundamental matrix of the "
                       "residual system found over Q(t)", report=report)
    towers = [c.tower for c in indep]
    sol_tower = next((tw for tw in towers if not tw.trivial), TRIVIAL_TOWER)
    sols = []
    for c in indep:
        dr = dup_add(c.certificate, dup_strip([dlog]), QQ_XT)
        sols.append(LiouvilleSolution("Hypergeometric", [Part(
            dm_embed(G, c.tower) * c.V, dm_diag([[ratio_K]], c.tower),
            dm_diag([dr], c.tower), 1)], c.tower))
    nf = NormalForm(alpha=report["alpha"], betas=[QQ_XT.to_sympy(beta1)] * n,
                    cs=[element_expr(c.certificate) for c in indep], ell=1,
                    tower=sol_tower)
    return Outcome("Solved", "DP1", solutions=sols, normal_form=nf,
                   report=report)


def _independent_candidates(cands, n):
    """n hyperexponential candidates with vectors independent over their
    tower, or None: a greedy scan over exact ranks of the hstacked K-forms,
    trivial-tower vectors embedded into the tower of the others.  A
    candidate over a second nontrivial tower shares no tower with the
    chosen ones and is skipped."""
    chosen, tower = [], TRIVIAL_TOWER
    for c in cands:
        tw = c.tower if tower.trivial else tower
        if c.tower not in (tw, TRIVIAL_TOWER):
            continue
        trial = chosen + [c]
        cols = DomainMatrix.hstack(*(cc.V if cc.tower == tw
                                     else dm_embed(cc.V, tw)
                                     for cc in trial))
        if cols.rank() == tw.degree * len(trial):
            chosen, tower = trial, tw
        if len(chosen) == n:
            return chosen
    return None


# ---------------------------------------------------------------------------
# decision procedure 2

def decision_procedure_2(sys: DDSystem) -> Outcome:
    """Interlaced-hypergeometric search for the sigma^n-compressed system."""
    return _unsupported_as_outcome(_decision_procedure_2, sys, "DP2")


def _decision_procedure_2(sys: DDSystem, report: dict) -> Outcome:
    n = sys.n
    stages = report["stages"]
    An = sys.cocycle(n)
    report["An"] = dm_to_matrix(An)

    # (a) det A = (-1)^{n-1} sigma(g)/g alpha(x) beta(t): rational bases
    stages.append("a")
    if not all(cls.over_q for cls in sys.det_standard.divisor.classes):
        return Outcome("NoSolution", "DP2", "a",
                       "det A does not split as alpha(x) * beta(t)",
                       report=report)

    # (b) beta from the leading series coefficient; specialize t = p
    stages.append("b")
    beta_K = leading_beta(sys.det_K, n)
    report["beta"] = beta = QQ_XT.to_sympy(beta_K)
    spec = _specialization_point(An.mul(QQ_XT.one / beta_K))
    if spec is None:
        return Outcome("Unsupported", "DP2", "b",
                       "no valid specialization point among the first 50 "
                       "candidates", report=report)
    p, A0 = spec
    report["specialization_point"] = int(p)
    report["A0"] = dm_to_matrix(A0)

    # (c) hypergeometric candidates of the specialized sigma^n-system,
    # one per standard part and constant span
    stages.append("c")
    cands = system_hypergeometric(A0, n)
    if not cands:
        return Outcome("NoSolution", "DP2", "c",
                       "specialized sigma^n-system has no hypergeometric "
                       "solutions", report=report)
    # lambda in K, one per sigma^n-class, ordered by its canonical
    # expression: the order decides which gauge is found first.  One lambda
    # per class is complete: for lambda_2 = sigma^n(q)/q * lambda_1 the
    # gauge G_2 = G_1 diag(q(x + j0 + i))^-1 works for lambda_2 whenever G_1
    # works for lambda_1, and its delta-part differs from G_1's by a
    # conjugation with that diagonal and a diagonal log-derivative, so it
    # is diagonal exactly when G_1's is (ROADMAP item 1)
    lams = sorted({c.standard_part for c in cands},
                  key=lambda lam: sp.default_sort_key(QQ_XT.to_sympy(lam)))
    report["candidate_ratios"] = [QQ_XT.to_sympy(lam) for lam in lams]

    # (d) least shift j0 with a rational sigma^n-solution, then the gauge.
    # Existence is periodic in j0 with period n (the systems for j0 and
    # j0 + n are equivalent through the rational factor lambda(x + j0)),
    # so scanning 0 <= j0 < n is exhaustive.
    stages.append("d")
    for lam in lams:
        # beta * lambda(x + s) for s = j0 + i < 2n - 1
        shifted = [k_shift(beta_K * lam, s) for s in range(2 * n - 1)]
        for j0 in range(n):
            R = DomainMatrix.diag(shifted[j0:j0 + n], QQ_XT)
            G = gauge_from_ratios(An, sys.cocycle_inverse(n), R, n)
            if G is None:
                continue
            Bbar = _gauge_delta_part(G, sys.B_K, TRIVIAL_TOWER)
            off = _diag_offenders(Bbar, TRIVIAL_TOWER)
            if off:
                return Outcome("NoSolution", "DP2", "d",
                               f"delta-part not diagonal at {off}",
                               report=report)
            G, Bbar = _normalize_gauge_certificates(G, Bbar, TRIVIAL_TOWER)
            report["lambda"] = QQ_XT.to_sympy(lam)
            report["j0"] = j0
            report["G"] = dm_to_matrix(G)
            report["Bbar"] = dm_to_matrix(Bbar)
            # delta(beta)/(n beta) * x, the delta-ratio of beta^(x/n)
            dlog = beta_K.diff(_TK) / (n * beta_K) * _XK
            bhats = [QQ_XT.to_sympy(Bbar[i, i].element - dlog)
                     for i in range(n)]
            nf = NormalForm(alpha=report["lambda"], betas=[beta] * n,
                            bhats=bhats, j0=j0, ell=n)
            sols = [LiouvilleSolution("Interlaced", [_column_part(
                G, [shifted[j0 + i]], Bbar, i, TRIVIAL_TOWER, n, i)])
                for i in range(n)]
            return Outcome("Solved", "DP2", solutions=sols, normal_form=nf,
                           report=report)
    # complete for the candidate ratios: gauge_from_ratios returns None
    # only when some ratio has no rational solution or when no constant
    # combination per slot is invertible (the multilinearity argument at
    # ratsol._invertible_selection)
    return Outcome("NoSolution", "DP2", "d",
                   "no candidate ratio admits a rational sigma^n-solution "
                   "with an invertible gauge", report=report)


# 0, 1, -1, 2, -2, ...: the candidates of every rational-point search
RATIONAL_POINTS = tuple(sp.Integer((k + 1) // 2 * (-1) ** (k + 1))
                        for k in range(50))


def _at_point(D: DomainMatrix, p):
    """The entries of the K-matrix D at the integer t = p, as (num, den)
    pairs of polynomials in x over Z (held in Z[x, t]); None when some
    denominator vanishes identically there."""
    p = int(p)
    out = []
    for e in D.to_list_flat():
        den = e.denom.subs(_T, p)
        if not den:
            return None
        out.append((e.numer.subs(_T, p), den))
    return out


def _defined_at(D: DomainMatrix, p) -> bool:
    """Whether no denominator of the K-matrix D vanishes identically at the
    rational t = p, substituted over Q in the denominators brought into
    Q[x, t]."""
    p = QQ.from_sympy(p)
    return all(e.denom.set_ring(_Q_XT_RING).subs(_Q_T, p)
               for e in D.to_list_flat())


def _specialization_point(Atil: DomainMatrix):
    """First p of RATIONAL_POINTS with Atil (a K-matrix) defined at t = p
    and Atil|_{t=p} invertible; returns (p, the K-form of Atil|_{t=p})."""
    for p in RATIONAL_POINTS:
        entries = _at_point(Atil, p)
        if entries is None:
            continue
        A0 = DomainMatrix.from_list_flat(
            [QQ_XT.field.new(num, den) for num, den in entries], Atil.shape,
            QQ_XT)
        if A0.rank() == A0.shape[0]:
            return p, A0
    return None


# ---------------------------------------------------------------------------
# the top-level verdict

def solve_liouvillian(sys: DDSystem) -> Outcome:
    """DP1, then DP2 with sequence lifts; verdicts: Solved,
    NoLiouvillianSolutions (only when irreducibility is asserted),
    Inconclusive when a subsolver restriction was hit or irreducibility is
    not asserted.  DP2 runs whenever DP1 does not solve, also after an
    Unsupported DP1."""
    sys.validate()
    level = ("integrable as a sigma-delta system" if sys.integrability_level == 1
             else f"integrable only at the sigma^{sys.integrability_level} level")
    report = {"assumptions": [level], "timings": {}}
    if sys.assume_irreducible:
        report["assumptions"].append(
            "irreducibility over Q(x, t) asserted by the caller")
    timings = report["timings"]
    unsupported = None
    for key, procedure in (("dp1", decision_procedure_1),
                           ("dp2", decision_procedure_2)):
        out = _timed(timings, key, procedure, sys)
        report[key] = {"kind": out.kind, "stage": out.stage,
                       "reason": out.reason, "stages": out.report.get("stages")}
        if out.kind == "Solved":
            _timed(timings, "verify", _verify_solved, sys, out)
            if key == "dp2":
                out.report["lifts"] = _timed(timings, "lift", _lifts, sys, out)
            out.report.update(report)
            return out
        if out.kind == "Unsupported" and unsupported is None:
            unsupported = out
    if unsupported is not None:
        # the first restricted subroutine is the reason no verdict is given
        return Outcome("Inconclusive", unsupported.provenance,
                       unsupported.stage,
                       f"restricted subroutine: {unsupported.reason}",
                       report=report)
    if not sys.assume_irreducible:
        # the procedures decide irreducible systems only; a reducible one
        # can have a liouvillian basis that neither finds
        return Outcome("Inconclusive", "DP1+DP2",
                       reason="both decision procedures exclude a liouvillian "
                              "basis, but irreducibility over Q(x, t) is not "
                              "asserted (irreducible_over_k0, "
                              "--assume-irreducible)", report=report)
    return Outcome("NoLiouvillianSolutions", "DP1+DP2",
                   reason="both decision procedures exclude a liouvillian "
                          "basis; valid under the declared assumptions",
                   report=report)


def _timed(timings: dict, key: str, fn, *args):
    """fn(*args), its wall time (perf_counter) recorded under `key`."""
    start = time.perf_counter()
    result = fn(*args)
    timings[key] = time.perf_counter() - start
    return result


def _lifts(sys: DDSystem, out: Outcome) -> list:
    """The sigma-sequence lifts of DP2's interlaced solutions."""
    # N(j), d(j) and the inverses of A = N/d, and the poles of A, B and
    # det A, shared by the lifts
    steps = CompiledMatrix(sys.A_K)
    start = first_regular_index(sys.A_K, sys.B_K, sys.det_K)
    lifts = []
    for sol in out.solutions:
        part = sol.parts[0]
        lifts.append(lift_sigma_d_to_sigma(
            part.W, part.r, sys.n, sys.A_K, sys.B_K,
            N=first_safe_index(start, part.W), steps=steps))
    return lifts


def _verify_solved(sys: DDSystem, out: Outcome):
    for sol in out.solutions:
        res = verify_certificates(sys, sol)
        if not res.ok:
            raise VerificationError(
                f"certificate verification failed: {res.failures}")
    t0 = _first_verification_point(sys, out.solutions)
    for sol in out.solutions:
        res = verify_numeric_window(sys, sol, t0, terms=30)
        if not res.ok:
            raise VerificationError(
                f"numeric verification failed: {res.failures}")
    out.report["verification"] = f"30-term numeric window at t = {t0}"


def verification_point_fault(sys, solutions, p) -> Optional[str]:
    """Why the numeric window of these solutions cannot run at t = p, or
    None when it can: the minimal polynomial of a solution's tower has a
    pole or is reducible there, or a denominator of A, B, a W or a
    sigma-ratio (read off their K-forms) vanishes identically there."""
    return _point_fault(*_verification_forms(sys, solutions), p)


def _verification_forms(sys, solutions) -> tuple:
    """(K-forms of A, B and of every W and sigma-ratio, distinct towers of
    the solutions): what :func:`_point_fault` reads at each point."""
    forms = [sys.A_K, sys.B_K]
    towers = {}
    for sol in solutions:
        towers[sol.tower] = None
        forms += [D for part in sol.parts for D in (part.W, part.r)]
    return forms, list(towers)


def _point_fault(forms: list, towers: list, p) -> Optional[str]:
    for tower in towers:
        try:
            PointEvaluator(tower, p)
        except FieldError as err:
            return str(err)
    if not all(_defined_at(D, p) for D in forms):
        return f"a denominator of A, B or a solution vanishes at t = {p}"
    return None


def _first_verification_point(sys: DDSystem, solutions=()):
    """First positive p of RATIONAL_POINTS at which the numeric window of
    the solutions can run (see :func:`verification_point_fault`)."""
    forms, towers = _verification_forms(sys, solutions)
    for p in RATIONAL_POINTS:
        if p > 0 and _point_fault(forms, towers, p) is None:
            return p
    raise VerificationError("no verification point: at every positive "
                            "candidate t a denominator vanishes or a "
                            "minimal polynomial is reducible")
