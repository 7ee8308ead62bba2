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
expression is converted into K inside a solve.  The report
(:class:`Report`) and the :class:`NormalForm` hold K-forms too, printed
from K, and form their sympy values only when read; DP2's one sympy
expression is the sort key of its candidate ratios.

Every gauge comes from ``ratsol.assemble_gauge``, which checks it once.
A K-matrix is specialized at t = p by K's own ``subs``, and is defined
at a rational point when none of its denominators reads as zero there
(:func:`verification_point_fault`).

:attr:`DDSystem.integrability_level` is the one integrability routine:
:meth:`DDSystem.validate` and ``ddsolve check`` read it, and
:func:`check_integrability` its first step alone.  :func:`_first_point`
is the one search over ``RATIONAL_POINTS``, for DP2's specialization
point and for the first point of the numeric window.
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
                     dm_cleared, dm_conjugate, dm_delta, dm_delta_clear,
                     dm_delta_part, dm_diag, dm_embed,
                     dm_from_matrix, dm_inv, dm_over_qt, dm_same, dm_shift,
                     dm_sigma_power, dm_to_matrix, element_expr,
                     from_regular, has_rank, k_shift, t_value,
                     tower_from_modulus)
from .moser import (MoserReport, ReductionStalled, leading_eigendata,
                    moser_reduce)
from .ratsol import assemble_gauge, gauge_from_ratios, rational_solutions
from .sequences import (WINDOW_TERMS, CompiledMatrix, LiouvilleSolution,
                        Part, PointEvaluator, SeqVec, VerificationError,
                        first_regular_index, first_safe_index, tower_fault,
                        verify_certificates, verify_numeric_window)

__all__ = ["DDSystem", "Outcome", "NormalForm", "KForm", "Report",
           "check_integrability", "decision_procedure_1",
           "decision_procedure_2", "solve_liouvillian",
           "verification_point_fault"]

# x and t in the ring Z[x, t] of K's numerators, and in K
_X, _T = QQ_XT.field.ring.gens
_XK, _TK = QQ_XT.gens


@dataclass
class DDSystem:
    """Integrable system sigma(Y) = A Y, delta(Y) = B Y over Q(x, t), held
    as the K-forms :attr:`A_K` and :attr:`B_K` of A and B.

    ``files.read_system`` gives the K-forms; sympy matrices A and B enter K
    here, through :func:`~ddsolve.fields.dm_from_matrix`, and an entry
    outside Q(x, t) is a ValueError.  :attr:`A` and :attr:`B` are the
    sympy matrices, formed on first read.  The forms over K derived from A
    and B (:attr:`det_K`, :attr:`det_standard`, the cocycles of
    :meth:`cocycle` and the cleared forms of the cocycles and their
    inverses, :meth:`cleared_cocycle`) are computed on first use and kept,
    so each is formed once per system: validation, stage a of both
    procedures and the lifts' pole scan read the one det A, and every
    rational solve of sigma^m(W) = (A_m/r) W scales the cleared A_m and
    A_m^-1 by 1/r and r.  A and B are not modified after construction."""
    n: int
    A_K: DomainMatrix
    B_K: DomainMatrix
    assume_irreducible: bool = False

    def __post_init__(self):
        self.A_K, self.B_K = map(_over_k, (self.A_K, self.B_K))

    @functools.cached_property
    def A(self) -> sp.Matrix:
        return dm_to_matrix(self.A_K)

    @functools.cached_property
    def B(self) -> sp.Matrix:
        return dm_to_matrix(self.B_K)

    @functools.cached_property
    def det_K(self):
        """det A, an element of K: with A = N/q (:func:`dm_clear`), det N
        over Z[x, t] (fraction-free) divided by q^n, cancelled once."""
        q, N = dm_clear(self.A_K)
        return QQ_XT.field.new(N.det(), q ** N.shape[0])

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
    def _cleared_cocycles(self) -> dict:
        return {}

    def cleared_cocycle(self, m: int) -> tuple:
        """The cleared forms (:class:`~ddsolve.fields.Cleared`) of A_m and
        of A_m^-1, the one inverse of the cocycle (m >= 1), which the
        rational solves scale by 1/r and r."""
        if m not in self._cleared_cocycles:
            Am = self.cocycle(m)
            self._cleared_cocycles[m] = (dm_cleared(Am),
                                         dm_cleared(dm_inv(Am)))
        return self._cleared_cocycles[m]

    @functools.cached_property
    def sigma_integrable(self) -> bool:
        """sigma(B) A = delta(A) + A B, tested fraction-free on cleared
        numerators (see :func:`_integrable`).  FieldError when A is
        singular."""
        if self.det_K == 0:
            raise FieldError("matrix not invertible")
        return _integrable(self.A_K, self.B_K, 1)

    @functools.cached_property
    def integrability_level(self) -> int:
        """1 when :attr:`sigma_integrable`, else n when sigma^n(B) A_n =
        delta(A_n) + A_n B for the cocycle A_n, tested the same way, else
        0.  Since A, and so A_n, is invertible, each is the integrability
        condition sigma^m(B) = (delta(A_m) + A_m B) A_m^{-1}."""
        if self.sigma_integrable:
            return 1
        # a system whose sigma^n-compressed companion is integrable: every
        # certificate emitted downstream is verified against the sigma^n-
        # and delta-relations, which are exactly the ones that hold
        return self.n if _integrable(self.cocycle(self.n), self.B_K,
                                     self.n) else 0

    def integrability_residual(self) -> DomainMatrix:
        """sigma(B) - delta(A) A^{-1} - A B A^{-1} over K, the residual of
        the sigma-level identity."""
        A = self.A_K
        return dm_shift(self.B_K, 1) - (dm_delta(A) + A * self.B_K) * dm_inv(A)

    def validate(self):
        """Check that (A, B) is a system the procedures accept: n prime,
        A and B n x n, A invertible, and :attr:`integrability_level` 1 or
        n; the residual over K is formed only for the message when it is
        0.  ValueError otherwise."""
        if not sp.isprime(self.n):
            raise ValueError(f"order n = {self.n} must be prime")
        if {self.A_K.shape, self.B_K.shape} != {(self.n, self.n)}:
            raise ValueError("A and B must be n x n")
        if self.det_K == 0:
            raise ValueError("A must be invertible")
        if not self.integrability_level:
            raise ValueError("integrability fails; residual = "
                             f"{dm_to_matrix(self.integrability_residual())}")


def _over_k(M) -> DomainMatrix:
    """A system matrix as its K-form: a K-matrix as it is, a sympy matrix
    through :func:`~ddsolve.fields.dm_from_matrix`.  ValueError for an
    entry outside Q(x, t)."""
    if isinstance(M, DomainMatrix):
        return M
    try:
        return dm_from_matrix(M)
    except FieldError as err:
        raise ValueError(f"A and B must be over Q(x, t): {err}")


@dataclass(eq=False)
class KForm:
    """A report entry held in K: an element of the tower (a dense list over
    K, highest power of theta first) or the K-form of a matrix over it.
    :attr:`expr` is the same as a sympy expression or matrix, formed on
    first read."""
    value: object
    tower: Tower = TRIVIAL_TOWER

    @functools.cached_property
    def expr(self):
        if isinstance(self.value, DomainMatrix):
            return dm_to_matrix(self.value, self.tower)
        return element_expr(self.value)


class Report(dict):
    """The report of a decision procedure.  Its K-form entries (a
    :class:`KForm`, or a list of them) read as their sympy values through
    ``[]`` and :meth:`get`; :meth:`form` reads the stored entry, which the
    printers print from."""

    def __getitem__(self, key):
        v = super().__getitem__(key)
        if isinstance(v, KForm):
            return v.expr
        if isinstance(v, list) and v and isinstance(v[0], KForm):
            return [a.expr for a in v]
        return v

    def get(self, key, default=None):
        return self[key] if key in self else default

    def form(self, key):
        return super().__getitem__(key)


@dataclass
class NormalForm:
    """Diagonal normal form data, its entries elements of the tower (dense
    lists over K).

    DP1: sigma-part diag(alpha * beta_i), delta-part diag(cs[i] +
    (delta beta_i / beta_i) x collapsed into the full delta ratios).
    DP2: sigma^n-part beta * diag(lam(x + j0 + i)), delta-part
    diag((delta beta/(n beta)) x + bhats[i]).  The list of the other
    procedure is empty.  :attr:`alpha`, :attr:`betas`, :attr:`cs` and
    :attr:`bhats` are the entries as sympy expressions, formed when
    read."""
    alpha_K: list
    betas_K: list
    cs_K: list = field(default_factory=list)
    bhats_K: list = field(default_factory=list)
    j0: int = 0
    ell: int = 1
    tower: Tower = TRIVIAL_TOWER

    @property
    def alpha(self) -> sp.Expr:
        return element_expr(self.alpha_K)

    @property
    def betas(self) -> list:
        return list(map(element_expr, self.betas_K))

    @property
    def cs(self) -> list:
        return list(map(element_expr, self.cs_K))

    @property
    def bhats(self) -> list:
        return list(map(element_expr, self.bhats_K))


@dataclass
class Outcome:
    kind: str                      # Solved | NoSolution | Unsupported |
                                   # NoLiouvillianSolutions | Inconclusive
    provenance: str = ""           # DP1 | DP2
    stage: str = ""                # exit stage for NoSolution
    reason: str = ""
    solutions: list = field(default_factory=list)
    normal_form: Optional[NormalForm] = None
    report: Report = field(default_factory=Report)


# ---------------------------------------------------------------------------

def check_integrability(A: sp.Matrix, B: sp.Matrix):
    """Exact test of sigma(B) = delta(A) A^{-1} + A B A^{-1} over
    K = Q(x, t).

    ok is :attr:`DDSystem.sigma_integrable`, decided fraction-free; the
    residual over K, which needs A^{-1}, is formed only when the test
    fails (the zero matrix otherwise).  Returns (ok, residual matrix).
    FieldError when A is singular, ValueError for an entry outside K."""
    system = DDSystem(A.shape[0], A, B)
    if system.sigma_integrable:
        return True, sp.zeros(*B.shape)
    return False, dm_to_matrix(system.integrability_residual())


def _integrable(Am: DomainMatrix, B: DomainMatrix, m: int) -> bool:
    """sigma^m(B) Am = delta(Am) + Am B over K, decided on cleared
    numerators (:func:`~ddsolve.fields.dm_same`), with no inverse and no
    gcd in the products: Am is cleared once, and delta(Am) is read from
    its pair with no cancel (:func:`~ddsolve.fields.dm_delta_clear`)."""
    C = dm_clear(Am)
    return dm_same([(dm_shift(B, m), C)], [(dm_delta_clear(C),), (C, B)])


def _diag_offenders(D: DomainMatrix, tower: Tower) -> list:
    """The off-diagonal positions of nonzero entries of the matrix over the
    tower whose K-form is D."""
    n = D.shape[0] // tower.degree
    entries = from_regular(D, tower.degree)
    return [(i, j) for i in range(n) for j in range(n)
            if i != j and entries[i * n + j]]


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
    if all(g == QQ_XT.one for g in gammas):
        return G, Bbar
    S = DomainMatrix.diag([g for g in gammas for _ in range(deg)], QQ_XT)
    return G * S, dm_delta_part(S, Bbar, tower)


# ---------------------------------------------------------------------------
# decision procedure 1

def decision_procedure_1(sys: DDSystem) -> Outcome:
    """Hypergeometric fundamental-system search for the sigma-system."""
    return _unsupported_as_outcome(_decision_procedure_1, sys, "DP1")


def _unsupported_as_outcome(procedure, sys: DDSystem, provenance: str):
    """Run a decision procedure; a subroutine outside its scope
    (UnsupportedCase, ReductionStalled) ends it as Unsupported at the
    current stage."""
    report = Report(stages=[])
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
    report["alpha"] = KForm([alpha_K])

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
        # a polynomial in theta over Q(t), theta an indeterminate
        report["beta_minpoly"] = KForm(list(tower.modulus))
        if len(betas) != n:
            return Outcome("Unsupported", "DP1", "d1",
                           "splitting field required: not all conjugate "
                           "eigenvalues lie in the degree-n tower",
                           report=report)
        A = dm_embed(sys.A_K, tower)
        ar = TowerArithmetic(tower)
        ratios = [ar.mul([alpha_K], b) for b in betas]
        # one rational solve; the remaining columns are conjugates.  The
        # ratio lies in the tower, not in K: the products run over K
        basis = rational_solutions(
            dm_cleared(A * dm_diag([ar.inv(ratios[0])] * n, tower)),
            dm_cleared(dm_diag([ratios[0]] * n, tower)
                       * dm_embed(dm_inv(sys.A_K), tower)), 1, tower)
        if not basis:
            return Outcome("NoSolution", "DP1", "d1",
                           "no rational solution for the ratio alpha*beta_1",
                           report=report)
        columns = [[dm_conjugate(V, b, tower) for V in basis]
                   for b in betas[1:]]
        G = assemble_gauge([basis] + columns, A, dm_diag(ratios, tower), 1,
                           tower)
    else:  # Split over Q(t)
        tower = TRIVIAL_TOWER
        roots = [QQ_XT.convert_from(r, QQ_T) for r in eig.roots]
        betas = [[b] for b in roots]
        ratios = [[alpha_K * b] for b in roots]
        G = gauge_from_ratios(*sys.cleared_cocycle(1), dm_diag(ratios), 1)
    if G is None:
        # complete: _invertible_selection tries every one-vector-per-slot
        # choice, and a minor of any constant combination per slot is a
        # sum of the same minor over those choices (multilinearity), so
        # no combination is invertible either
        return Outcome("NoSolution", "DP1", "d1",
                       "rational solutions exist but assemble to no "
                       "invertible gauge", report=report)
    Bbar = dm_delta_part(G, dm_embed(sys.B_K, tower), tower)
    off = _diag_offenders(Bbar, tower)
    if off:
        return Outcome("NoSolution", "DP1", "d1",
                       f"delta-part not diagonal at {off}", report=report)
    G, Bbar = _normalize_gauge_certificates(G, Bbar, tower)
    report["G"], report["Bbar"] = KForm(G, tower), KForm(Bbar, tower)
    sols = [LiouvilleSolution("Hypergeometric", _column_part(
        G, ratios[i], Bbar, i, tower), tower) for i in range(n)]
    # c_i = Bbar_ii - delta(beta_i)/beta_i * x, on 1 x 1 K-forms
    cs = []
    for b, sol in zip(betas, sols):
        D = dm_diag([b], tower)
        cs += from_regular(sol.part.c - (dm_delta(D, tower)
                                         * dm_inv(D)).mul(_XK), tower.degree)
    nf = NormalForm(alpha_K=[alpha_K], betas_K=betas, cs_K=cs, ell=1,
                    tower=tower)
    return Outcome("Solved", "DP1", solutions=sols, normal_form=nf,
                   report=report)


def _dp1_stage_d2(sys: DDSystem, alpha_K, beta1, report: dict) -> Outcome:
    n = sys.n
    ratio_K = alpha_K * beta1
    A, A_inv = sys.cleared_cocycle(1)
    a, b = ratio_K.numer, ratio_K.denom
    basis = rational_solutions(A.scale(b, a), A_inv.scale(a, b), 1,
                               TRIVIAL_TOWER)
    G = assemble_gauge([basis] * n, A, dm_diag([[ratio_K]] * n), 1)
    if G is None:
        # complete, by the argument at ratsol._invertible_selection
        return Outcome("NoSolution", "DP1", "d2",
                       "no invertible gauge with ratio alpha*beta over "
                       "Q(x, t)", report=report)
    Bbar = dm_delta_part(G, sys.B_K, TRIVIAL_TOWER)
    # delta(beta_1)/beta_1 * x, the delta-ratio of beta_1^x
    dlog = beta1.diff(_TK) / beta1 * _XK
    Bhat = Bbar - DomainMatrix.eye(n, QQ_XT).mul(dlog)
    if dm_over_qt(Bhat) is None:
        return Outcome("NoSolution", "DP1", "d2",
                       "residual delta-part is not over Q(t)", report=report)
    report["G"], report["Bhat"] = KForm(G), KForm(Bhat)
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
        sols.append(LiouvilleSolution("Hypergeometric", Part(
            dm_embed(G, c.tower) * c.V, dm_diag([[ratio_K]], c.tower),
            dm_diag([dr], c.tower), 1), c.tower))
    nf = NormalForm(alpha_K=[alpha_K], betas_K=[[beta1]] * n,
                    cs_K=[c.certificate for c in indep], ell=1,
                    tower=sol_tower)
    return Outcome("Solved", "DP1", solutions=sols, normal_form=nf,
                   report=report)


def _independent_candidates(cands, n):
    """n hyperexponential candidates with vectors independent over their
    tower, or None: a greedy scan over the ranks (``has_rank``) of the
    hstacked K-forms, trivial-tower vectors embedded into the tower of the
    others.  A candidate over a second nontrivial tower shares no tower
    with the chosen ones and is skipped."""
    chosen, tower = [], TRIVIAL_TOWER
    for c in cands:
        tw = c.tower if tower.trivial else tower
        if c.tower not in (tw, TRIVIAL_TOWER):
            continue
        trial = chosen + [c]
        cols = DomainMatrix.hstack(*(cc.V if cc.tower == tw
                                     else dm_embed(cc.V, tw)
                                     for cc in trial))
        if has_rank(cols, tw.degree * len(trial)):
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
    report["An"] = KForm(An)

    # (a) det A = (-1)^{n-1} sigma(g)/g alpha(x) beta(t): rational bases
    stages.append("a")
    if not all(cls.over_q for cls in sys.det_standard.divisor.classes):
        return Outcome("NoSolution", "DP2", "a",
                       "det A does not split as alpha(x) * beta(t)",
                       report=report)

    # (b) beta from the leading series coefficient; specialize t = p
    stages.append("b")
    beta_K = leading_beta(sys.det_K, n)
    report["beta"] = KForm([beta_K])
    spec = _specialization_point(An.mul(QQ_XT.one / beta_K))
    if spec is None:
        return Outcome("Unsupported", "DP2", "b",
                       "no valid specialization point among the first 50 "
                       "candidates", report=report)
    p, A0 = spec
    report["specialization_point"] = int(p)

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
    # is diagonal exactly when G_1's is (ROADMAP item 1).  The sort key is
    # DP2's one remaining sympy expression: it fixes which gauge is found
    # first, and so the bytes of the solution file
    lams = sorted({c.standard_part for c in cands},
                  key=lambda lam: sp.default_sort_key(QQ_XT.to_sympy(lam)))
    report["candidate_ratios"] = [KForm([lam]) for lam in lams]

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
            G = gauge_from_ratios(*sys.cleared_cocycle(n), R, n)
            if G is None:
                continue
            Bbar = dm_delta_part(G, sys.B_K, TRIVIAL_TOWER)
            off = _diag_offenders(Bbar, TRIVIAL_TOWER)
            if off:
                return Outcome("NoSolution", "DP2", "d",
                               f"delta-part not diagonal at {off}",
                               report=report)
            G, Bbar = _normalize_gauge_certificates(G, Bbar, TRIVIAL_TOWER)
            report["lambda"], report["j0"] = KForm([lam]), j0
            report["G"], report["Bbar"] = KForm(G), KForm(Bbar)
            # delta(beta)/(n beta) * x, the delta-ratio of beta^(x/n)
            dlog = beta_K.diff(_TK) / (n * beta_K) * _XK
            bhats = [dup_strip([Bbar[i, i].element - dlog])
                     for i in range(n)]
            nf = NormalForm(alpha_K=[lam], betas_K=[[beta_K]] * n,
                            bhats_K=bhats, j0=j0, ell=n)
            sols = [LiouvilleSolution("Interlaced", _column_part(
                G, [shifted[j0 + i]], Bbar, i, TRIVIAL_TOWER, n, i))
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


def _first_point(at):
    """The first value at(p) that is not None, p running over
    RATIONAL_POINTS; None when there is none."""
    return next((v for v in map(at, RATIONAL_POINTS) if v is not None), None)


def _specialization_point(Atil: DomainMatrix):
    """First p of RATIONAL_POINTS with Atil (a K-matrix) defined at t = p
    and Atil|_{t=p} invertible; returns (p, the K-form of Atil|_{t=p}).
    K's ``subs`` cancels each entry and raises ZeroDivisionError at a pole."""
    def at(p):
        try:
            A0 = DomainMatrix.from_list_flat(
                [e.subs(_TK, p) for e in Atil.to_list_flat()], Atil.shape,
                QQ_XT)
        except ZeroDivisionError:
            return None
        return (p, A0) if has_rank(A0, A0.shape[0]) else None
    return _first_point(at)


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
    report = Report(assumptions=[level], timings={})
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
    """The sigma-sequence lifts of DP2's interlaced solutions, whose
    identity sigma^n(W) r = A_n W :func:`_verify_solved` has decided:
    each is the recurrence W(j+1) = A(j) W(j) from W's value at its
    :func:`first_safe_index` (see :func:`lift_sigma_d_to_sigma` for why
    that is the lift)."""
    # N(j), d(j) of A = N/d and the poles of A, B and det A, shared by
    # the lifts
    steps = CompiledMatrix(sys.A_K)
    start = first_regular_index(sys.A_K, sys.B_K, sys.det_K)
    return [SeqVec(steps, first_safe_index(start, sol.part.W), sol.part.W)
            for sol in out.solutions]


def _verify_solved(sys: DDSystem, out: Outcome):
    for sol in out.solutions:
        res = verify_certificates(sys, sol)
        if not res.ok:
            raise VerificationError(
                f"certificate verification failed: {res.failures}")
    t0 = _first_verification_point(sys, out.solutions)
    for sol in out.solutions:
        res = verify_numeric_window(sys, sol, t0)
        if not res.ok:
            raise VerificationError(
                f"numeric verification failed: {res.failures}")
    out.report["verification"] = \
        f"{WINDOW_TERMS}-term numeric window at t = {t0}"


def verification_point_fault(sys, solutions, p) -> Optional[str]:
    """Why the numeric window of these solutions cannot run at t = p, or
    None when it can: the minimal polynomial of a solution's tower has a
    pole or is reducible there (:func:`tower_fault`), or a denominator of
    A, B, a W or a sigma-ratio vanishes identically there, which is when
    it reads as the zero polynomial in x at p (then the common
    denominator of its K-form, the lcm of these, compiles to zero)."""
    for tower in dict.fromkeys(sol.tower for sol in solutions):
        fault = tower_fault(tower, p)
        if fault is not None:
            return fault
    forms = [sys.A_K, sys.B_K] + [D for sol in solutions
                                  for D in (sol.part.W, sol.part.r)]
    dens = {e.denom for D in forms for e in D.to_flat_nz()[0]}
    if not all(PointEvaluator(p).dense_in_x(list(dens))):
        return f"a denominator of A, B or a solution vanishes at t = {p}"
    return None


def _first_verification_point(sys: DDSystem, solutions=()):
    """First positive p of RATIONAL_POINTS at which the numeric window of
    the solutions can run (see :func:`verification_point_fault`)."""
    p = _first_point(lambda p: p if p > 0 and verification_point_fault(
        sys, solutions, p) is None else None)
    if p is None:
        raise VerificationError("no verification point: at every positive "
                                "candidate t a denominator vanishes or a "
                                "minimal polynomial is reducible")
    return p
