import random

import pytest
import sympy as sp
from hypothesis import assume, given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

import ddsolve.closedform as closedform
import ddsolve.fields as fields
import ddsolve.procedures as procedures
from ddsolve.fields import (QQ_XT, TRIVIAL_TOWER, dm_clear, dm_cleared,
                            dm_from_matrix, dm_inv, dm_to_matrix, make_tower,
                            mat_inv, t, theta, treduce, x)
from ddsolve.files import read_system
from ddsolve.sequences import verify_certificates
import ddsolve.ratsol as ratsol

from gauged import gauged_by, gauged_system
from helpers import (mat_eq, mat_reduce, mat_shift, nullspace_over_Qt,
                     reference_degree_bound_det,
                     reference_polynomial_solutions,
                     reference_rational_solutions, reference_scalar_operators,
                     reference_universal_denominator, shift, teq)


# ratsol takes and returns K-forms, the matrix of a rational solve as its
# cleared form; these call it on sympy matrices

def _cleared_pair(M, tower=TRIVIAL_TOWER):
    """The cleared forms of M's K-form and of its inverse."""
    D = dm_from_matrix(M, tower)
    return dm_cleared(D), dm_cleared(dm_inv(D))


def _uncleared(C):
    """The K-matrix N/q of a cleared form."""
    return C.N.convert_to(QQ_XT).mul(QQ_XT.one / QQ_XT.new(C.q))


def universal_denominator(M, m=1, tower=TRIVIAL_TOWER):
    u = ratsol.universal_denominator(*_cleared_pair(M, tower), m)
    return dm_to_matrix(DomainMatrix([[u]], (1, 1), QQ_XT))[0]


def polynomial_solutions(M, m=1, tower=TRIVIAL_TOWER):
    return [dm_to_matrix(P, tower) for P in ratsol.polynomial_solutions(
        dm_cleared(dm_from_matrix(M, tower)), m, tower)]


def rational_solutions(M, m=1, tower=TRIVIAL_TOWER):
    return [dm_to_matrix(V, tower) for V in ratsol.rational_solutions(
        *_cleared_pair(M, tower), m, tower)]


def scalar_operators(M, m):
    return [list(dm_to_matrix(op)) for op in ratsol.scalar_operators(
        dm_from_matrix(M), m)]


def gauge_from_ratios(A, ratios, m):
    G = ratsol.gauge_from_ratios(*_cleared_pair(A),
                                 dm_from_matrix(sp.diag(*ratios)), m)
    return None if G is None else dm_to_matrix(G)


def _sigma_operator(M, tower):
    """[q I - N, q I], (q, N) = dm_clear of M's K-form: the operator whose
    polynomial solutions polynomial_solutions takes."""
    q, N = dm_clear(dm_from_matrix(M, tower))
    qI = DomainMatrix.eye(N.shape[0], N.domain).mul(q)
    return [qI - N, qI]


def _degree_bound(M, m, tower):
    return ratsol.degree_bound(_sigma_operator(M, tower), m, m)


def _constant_span_reduce(vectors, tower):
    return [dm_to_matrix(V, tower) for V in ratsol._constant_span_reduce(
        [dm_from_matrix(V, tower) for V in vectors], tower)]


def _invertible_selection(columns, tower):
    G = ratsol._invertible_selection(
        [[dm_from_matrix(V, tower) for V in slot] for slot in columns], tower)
    return None if G is None else dm_to_matrix(G, tower)


_WRAPPERS = {"universal_denominator": universal_denominator,
             "polynomial_solutions": polynomial_solutions,
             "scalar_operators": scalar_operators,
             "rational_solutions": rational_solutions}


def _substitutes(M, m, V):
    lhs = mat_reduce(mat_shift(V, m) - M * V)
    return all(treduce(e) == 0 for e in lhs)


def test_universal_denominator_catches_pole():
    # Y(x) = (1, 1/x) solves sigma(Y) = M Y for this M
    V = sp.Matrix([1, 1 / x])
    M = sp.Matrix([[1, 0], [0, x / (x + 1)]])
    u = universal_denominator(M)
    # every rational solution has denominator dividing u
    assert sp.rem(sp.Poly(u, x), sp.Poly(x, x)).is_zero


def test_polynomial_solutions_planted():
    # plant Y = (x, 1): sigma(Y) = ((x+1), 1) = M (x, 1)
    M = sp.Matrix([[(x + 1) / x, 0], [0, 1]])
    sols = polynomial_solutions(M)
    assert sols
    for V in sols:
        assert _substitutes(M, 1, V)
    span = sp.Matrix.hstack(*sols)
    target = sp.Matrix([x, 1])
    aug = sp.Matrix.hstack(span, target)
    assert span.rank() == aug.rank()  # (x, 1) lies in the span


def test_polynomial_solutions_degree_bound_over_tower():
    """Order 0 at infinity over a tower: y(x+1) = (1 + theta/x) y(x) has
    no polynomial solution (its exponent theta is not an integer), and
    y = x solves y(x+1) = (x+1)/x y(x)."""
    tw = make_tower(theta**2 - (t**2 + 1))
    assert polynomial_solutions(sp.Matrix([[1 + theta / x]]), 1, tw) == []
    sols = polynomial_solutions(sp.Matrix([[(x + 1) / x]]), 1, tw)
    assert sols == [sp.Matrix([x]), sp.Matrix([theta * x])]


def test_rational_solutions_planted_diagonalizable():
    rng = random.Random(23)
    for _ in range(4):
        g1 = x + rng.randint(0, 2)
        g2 = x**2 + rng.randint(1, 3)
        G = sp.Matrix([[1, x + t], [t, rng.randint(2, 4) + x]])
        if treduce(G.det()) == 0:
            continue
        D = sp.diag(shift(g1) / g1, shift(g2) / g2)
        M = mat_reduce(mat_shift(G) * D * mat_inv(G))
        basis = rational_solutions(M)
        assert len(basis) >= 2
        for V in basis:
            assert _substitutes(M, 1, V)


def test_rational_solutions_none():
    # sigma(y) = x*y has no nonzero rational solution (Gamma growth)
    M = sp.Matrix([[x]])
    assert rational_solutions(M) == []


def test_rational_solutions_step_two():
    # sigma^2(y) = (x+2)(x+3)/(x(x+1)) y has solution y = x(x+1)
    r = (x + 2) * (x + 3) / (x * (x + 1))
    basis = rational_solutions(sp.Matrix([[r]]), 2)
    assert basis
    assert any(teq(sp.cancel(V[0] / (x * (x + 1))).diff(x), 0)
               and _substitutes(sp.Matrix([[r]]), 2, V) for V in basis)


def test_scalar_operators_annihilate_solution_coordinates():
    g = x + 1
    M = sp.Matrix([[shift(g) / g, 1], [0, 2]])
    ops = scalar_operators(M, 1)
    assert len(ops) == 2
    # y = first coordinate of Y = (g, 0) solves the first operator
    y = g
    p = ops[0]
    acc = sum(sp.cancel(p[i] * shift(y, i)) for i in range(len(p)))
    assert sp.cancel(acc) == 0


def test_degree_bound_failure_is_unsupported():
    """diag(x, 1) has order -1 at infinity and a singular leading
    coefficient there; the leading matrix of its recurrence, diag(-1, k),
    gives the bound 0."""
    M = sp.Matrix([[x, 0], [0, 1]])
    assert _degree_bound(M, 1, TRIVIAL_TOWER) == 0


def test_degree_bound_keeps_the_equations_at_roots_in_k():
    """Y = (1, x - 3) solves sigma^2(Y) = M Y.  The elimination derives a
    row whose coefficients share a factor in k; dividing the row by it
    would lose the equation at its root and give the bound -1."""
    M = sp.Matrix([[1, 0], [(x + 3) / x, (x + 1) / x]])
    assert _degree_bound(M, 2, TRIVIAL_TOWER) >= 1
    assert polynomial_solutions(M, 2) == [sp.Matrix([1, x - 3])]


@st.composite
def _planted_order_two(draw):
    """(Ps, c, s, d): an operator P_0 + P_1 D + P_2 D^2, n x n over Z[v]
    with n <= 2, that kills a planted polynomial vector y of degree d.
    D is Delta_m on Z[x] (c = s = m) or d/dt on Z[t] (c = 1, s = 0).  With
    g a nonzero coordinate y_i, P_j = g R_j for j = 1, 2 and
    P_0 = u e_i^T + w (-y_2, y_1), u = -(R_1 D(y) + R_2 D^2(y)), so
    P_0 y = g u; R_2 is invertible, so the operator is nonsingular."""
    m = draw(st.sampled_from([0, 1, 2]))
    dom = sp.ZZ[t] if m == 0 else sp.ZZ[x]
    ring = dom.ring
    v = ring.gens[0]
    n = draw(st.integers(1, 2))

    def poly(deg):
        return sum((draw(st.integers(-3, 3)) * v**k for k in range(deg + 1)),
                   ring.zero)

    def D(p):
        return p.compose(v, v + m) - p if m else p.diff(v)

    d = draw(st.integers(0, 3))
    y = [poly(d) for _ in range(n)]
    top = draw(st.integers(0, n - 1))
    y[top] += draw(st.sampled_from([-2, -1, 1, 2])) * v**d - \
        y[top].coeff_wrt(v, d) * v**d
    i = next(k for k, p in enumerate(y) if p)
    R1, R2 = ([[poly(1) for _ in range(n)] for _ in range(n)]
              for _ in range(2))
    assume(DomainMatrix(R2, (n, n), dom).det())
    Dy = [D(p) for p in y]
    D2y = [D(p) for p in Dy]
    u = [-sum((R1[a][b] * Dy[b] + R2[a][b] * D2y[b] for b in range(n)),
              ring.zero) for a in range(n)]
    w = [poly(1) for _ in range(n)] if n == 2 else [ring.zero]
    perp = [-y[1], y[0]] if n == 2 else [ring.zero]
    P0 = [[(u[a] if b == i else ring.zero) + w[a] * perp[b]
           for b in range(n)] for a in range(n)]
    Ps = [DomainMatrix(P, (n, n), dom)
          for P in (P0, [[y[i] * e for e in row] for row in R1],
                    [[y[i] * e for e in row] for row in R2])]
    return Ps, m or 1, m, d


@settings(max_examples=40, deadline=None)
@given(_planted_order_two())
def test_degree_bound_of_order_two_covers_the_planted_degree(case):
    """The general-order bound is at least the degree of a planted
    solution of an order-2 operator, for sigma and for delta, and the
    ansatz below it finds a solution."""
    Ps, c, s, d = case
    assert ratsol.degree_bound(Ps, c, s) >= d
    assert ratsol.ansatz_kernel(Ps, s)


@st.composite
def _planted_sigma_operators(draw):
    """(Ps, d): the operator [q I - N, q I] over Z[x, t] of sigma(Y) = M Y,
    M = sigma(G) diag(g_i(x + 1)/g_i) G^-1 over the trivial tower or
    TOWER1, n <= 3 and G a product of elementary matrices, with the
    polynomial solutions G e_i g_i, of largest degree d in x."""
    tower = draw(st.sampled_from([TRIVIAL_TOWER, TOWER1]))
    n = draw(st.integers(1, 3))
    g = [draw(st.sampled_from([sp.Integer(1), x, x - 2, x + t, x**2 + 1]))
         for _ in range(n)]
    atoms = [1, -1, 2, x, t, x - t + 1] + ([] if tower.trivial
                                           else [theta, x * theta])
    G = sp.eye(n)
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        E = sp.eye(n)
        E[i, j] = draw(st.sampled_from(atoms))
        G = G * E
    M = mat_reduce(mat_shift(G) * sp.diag(*(shift(gi) / gi for gi in g))
                   * mat_inv(G, tower), tower)
    Y = G * sp.diag(*g)
    d = max(sp.degree(e, x) for e in Y if e != 0)
    return _sigma_operator(M, tower), d


@settings(max_examples=60, deadline=None)
@given(st.one_of(_planted_order_two(), _planted_sigma_operators().map(
    lambda case: (case[0], 1, 1, case[1]))))
def test_degree_bound_matches_the_exact_determinant_loop(case):
    """The bound that decides singularity at a point equals the one that
    takes every leading determinant exactly
    (helpers.reference_degree_bound_det), on the order-two operators over
    Z[x] and Z[t] and on planted sigma-operators over Z[x, t], n <= 3, on
    the trivial tower and on TOWER1's regular representation, and it
    covers the planted degree."""
    Ps, c, s, d = case
    bound = ratsol.degree_bound(Ps, c, s)
    assert bound == reference_degree_bound_det(Ps, c, s)
    assert bound >= d


def test_rank_tests_fall_back_to_exact_work_off_the_point():
    """Matrices that are invertible but singular at the fixed point of
    fields.point_rank, with a determinant that has the factor x - x0 (or
    k - x0 in the degree bound, k0 = x0 the first coordinate), get the
    exact answers: the point proves only a full rank."""
    x0, t0 = fields._POINT[:2]
    V1, V2 = sp.Matrix([x - x0, 0]), sp.Matrix([1, t + 1])
    G = sp.Matrix.hstack(V1, V2)
    assert fields.point_rank(dm_from_matrix(G)) == 1
    assert fields.has_rank(dm_from_matrix(G), 2)
    assert _invertible_selection([[V1], [V2]], TRIVIAL_TOWER) == G
    A = sp.Matrix([[x - x0, t], [0, 1]])
    p, A0 = procedures._specialization_point(dm_from_matrix(A))
    assert (p, dm_to_matrix(A0)) == (0, sp.Matrix([[x - x0, 0], [0, 1]]))
    # L(k) = k - x0: the root x0; L(k) = k + t - t0 - x0: the slice t = 0
    # has the root t0 + x0, which det L(t0 + x0, t) = t rejects
    ring = sp.ZZ[x, t]
    X, T = ring.gens
    for P0, bound in ((-x0 * X + T, x0), ((T - t0 - x0) * X, -1)):
        Ps = [DomainMatrix([[P0]], (1, 1), ring),
              DomainMatrix([[X**2]], (1, 1), ring)]
        assert ratsol.degree_bound(Ps, 1, 1) == bound
        assert reference_degree_bound_det(Ps, 1, 1) == bound


@pytest.mark.parametrize("gauge", [None, sp.Matrix([[1, t - 2 * x + 1],
                                                    [0, 1]])])
def test_degree_bound_forms_no_determinant_over_two_generators(
        example1_path, monkeypatch, gauge):
    """Inside degree_bound every determinant is over a ring of one
    generator (Z[k] or Z[consts]), on example1 and on its one-factor gauge,
    whose bound needs six elimination rounds: a leading matrix over
    Z[k, t] is decided at the point, by its exact null space and by
    slices."""
    system = read_system(example1_path)
    if gauge is not None:
        system = gauged_by(system, gauge)
    bound, det = ratsol.degree_bound, DomainMatrix.det
    depth, domains = [0], []

    def bound_spy(*args):
        depth[0] += 1
        try:
            return bound(*args)
        finally:
            depth[0] -= 1

    def det_spy(self):
        if depth[0]:
            domains.append(self.domain)
        return det(self)

    monkeypatch.setattr(ratsol, "degree_bound", bound_spy)
    monkeypatch.setattr(DomainMatrix, "det", det_spy)
    out = procedures.decision_procedure_1(system)
    monkeypatch.undo()
    assert (out.kind, out.provenance) == ("Solved", "DP1")
    assert domains and all(len(d.gens) == 1 for d in domains)


def test_gauge_from_ratios_recovers_planted_gauge():
    g1, g2 = x, x**2 + 1
    G0 = sp.Matrix([[1, 1], [t, 2 + t**2]])
    D = sp.diag(shift(g1) / g1, shift(g2) / g2)
    A = mat_reduce(mat_shift(G0) * D * mat_inv(G0))
    G = gauge_from_ratios(A, [shift(g1) / g1, shift(g2) / g2], 1)
    assert G is not None
    lhs = mat_reduce(mat_shift(G) * sp.diag(shift(g1) / g1, shift(g2) / g2)
                     - A * G)
    assert all(treduce(e) == 0 for e in lhs)


def test_gauge_from_ratios_failure_returns_none():
    A = sp.Matrix([[x, 0], [0, x]])  # ratio 1 has no rational solution
    assert gauge_from_ratios(A, [1, 1], 1) is None


# ---------------------------------------------------------------------------
# the linear solve over K

def _reference_nullspace(equations, unknowns):
    """SymPy's Matrix.nullspace on the coefficient matrix."""
    eqs = [e for e in equations if e != 0]
    if not eqs:
        return sp.zeros(1, len(unknowns)).nullspace()
    Amat, _ = sp.linear_eq_to_matrix(eqs, unknowns)
    return Amat.applyfunc(sp.cancel).nullspace(
        iszerofunc=lambda v: sp.cancel(v) == 0)


_coeff = st.tuples(st.integers(-3, 3), st.integers(-2, 2),
                   st.integers(1, 3)).map(lambda c: c[0] + c[1] * t / (t + c[2]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(0, 3), st.integers(0, 5), st.data())
def test_nullspace_matches_sympy_reference(nu, rank, ne, data):
    """Same vectors in the same order as Matrix.nullspace, on homogeneous
    systems over Q(t): rows are integer combinations of `rank` random
    rows, so the system may be rank-deficient, all zero or empty."""
    us = sp.symbols(f"_u0:{nu}")
    base = [data.draw(st.lists(_coeff, min_size=nu, max_size=nu))
            for _ in range(rank)]
    equations = []
    for _ in range(ne):
        c = data.draw(st.lists(st.integers(-2, 2), min_size=rank,
                               max_size=rank))
        equations.append(sp.expand(sum(c[i] * base[i][j] * us[j]
                                       for i in range(rank)
                                       for j in range(nu))))
    got = nullspace_over_Qt(equations, list(us))
    want = _reference_nullspace(equations, list(us))
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert all(sp.cancel(a - b) == 0 for a, b in zip(g, w))


def test_constant_span_reduce_keeps_x_dependent_multiples():
    V = sp.Matrix([1, 1 / (x + t)])
    W = sp.Matrix([x, 0])
    kept = _constant_span_reduce([V, (t + 2) * V, W, x * V, V - 3 * W],
                                 TRIVIAL_TOWER)
    assert kept == [V, W, x * V]


# ---------------------------------------------------------------------------
# the K-matrix implementations against the Expr references in helpers.py

# the tower of example1, theta^2 = t^2 + 1
TOWER1 = make_tower(theta**2 - (t**2 + 1))

_FACTORS = [sp.Integer(1), x, x + 1, x - 2, x + t, t * x + 1]


@st.composite
def _planted_systems(draw):
    """(M, m, tower) with M = sigma^m(G) diag(c_i r_i(x+m)/r_i) G^-1,
    r_i = g_i/h_i and G a product of elementary matrices: the slots with
    c_i = 1 carry the rational solutions G e_i r_i, the others none."""
    tower = draw(st.sampled_from([TRIVIAL_TOWER, TOWER1]))
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 2))
    consts = [1, 2, t] + ([t + 1] if tower.trivial else [theta, 1 + theta])
    factor = st.sampled_from(_FACTORS)
    D = [draw(st.sampled_from(consts)) * shift(r, m) / r
         for r in (draw(factor) / draw(factor) for _ in range(n))]
    atoms = [1, -1, 2, x, t, x + t] + ([] if tower.trivial else [theta])
    G = sp.eye(n)
    for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        E = sp.eye(n)
        E[i, j] = draw(st.sampled_from(atoms))
        G = G * E
    M = mat_reduce(mat_shift(G, m) * sp.diag(*D) * mat_inv(G, tower), tower)
    return M, m, tower


def _srepr_equal(got, want):
    assert sp.srepr(got) == sp.srepr(want)


@settings(max_examples=20, deadline=None)
@given(_planted_systems())
def test_ratsol_matches_reference_on_planted_systems(case):
    """Polynomial solutions are srepr-identical to the reference.  u is
    the reference's value in the canonical form of treduce (the reference
    returns it expanded).  Over the trivial tower the operators and the
    rational basis are srepr-identical too (scalar operators are formed
    over K only).  Over a tower the reference read a denominator off
    together(c_0 + c_1*theta), which repeats a factor shared by den(c_0)
    and den(c_1); so there its u may be a proper multiple.  The tower's
    rational bases are pinned by the calls of example1."""
    M, m, tower = case
    _srepr_equal(polynomial_solutions(M, m, tower),
                 reference_polynomial_solutions(M, m, None, tower))
    u = universal_denominator(M, m, tower)
    u_ref = reference_universal_denominator(M, m, tower)
    if tower.trivial:
        _srepr_equal(u, treduce(u_ref))
        _srepr_equal(scalar_operators(M, m),
                     reference_scalar_operators(M, m, tower))
        _srepr_equal(rational_solutions(M, m),
                     reference_rational_solutions(M, m))
        return
    quotient = treduce(u_ref / u)
    assert x not in sp.fraction(quotient)[1].free_symbols
    if x not in quotient.free_symbols:
        _srepr_equal(u, treduce(u_ref))


@pytest.fixture(scope="module")
def captured_calls(example1_path, example2_path):
    """Arguments of the ratsol calls the two decision procedures make on
    example1 (DP1 over its tower) and example2 (DP1, then DP2)."""
    names = ("universal_denominator", "polynomial_solutions",
             "scalar_operators", "rational_solutions")
    calls = {"example1": [], "example2": []}
    current = []
    towers = []    # the tower of the innermost call that names one
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            orig = getattr(ratsol, name)

            def spy(M, *args, _name=name, _orig=orig, **kwargs):
                # the solver passes every argument; universal_denominator,
                # called by rational_solutions, takes no tower, and
                # scalar_operators works over K.  The inverse of M that
                # universal_denominator and rational_solutions take is not
                # recorded: the wrappers form it from M, and the
                # references invert M themselves.  A cleared form is
                # recorded as its K-matrix N/q
                K = M if _name == "scalar_operators" else _uncleared(M)
                if _name == "scalar_operators":
                    tower, extra = TRIVIAL_TOWER, ()
                elif _name == "universal_denominator":
                    tower = towers[-1]
                    extra = (tower,)
                else:
                    tower, extra = args[-1], ()
                rest = args[1:] if _name in ("universal_denominator",
                                             "rational_solutions") else args
                current[-1].append((_name, (dm_to_matrix(K, tower), *rest)
                                    + extra, kwargs))
                towers.append(tower)
                try:
                    return _orig(M, *args, **kwargs)
                finally:
                    towers.pop()

            for mod in (ratsol, closedform, procedures):
                if getattr(mod, name, None) is orig:
                    mp.setattr(mod, name, spy)
        for name, path in (("example1", example1_path),
                           ("example2", example2_path)):
            current.append(calls[name])
            system = read_system(path)
            if procedures.decision_procedure_1(system).kind != "Solved":
                procedures.decision_procedure_2(system)
    return calls


_REFERENCES = {
    "universal_denominator": lambda *a, **k: treduce(
        reference_universal_denominator(*a, **k)),
    "polynomial_solutions": lambda M, m, tower:
        reference_polynomial_solutions(M, m, None, tower),
    "scalar_operators": lambda M, m: reference_scalar_operators(
        M, m, TRIVIAL_TOWER),
    "rational_solutions": reference_rational_solutions,
}


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_ratsol_matches_reference_on_captured_calls(captured_calls, name):
    calls = captured_calls[name]
    assert {fn for fn, _, _ in calls} >= {
        "universal_denominator", "polynomial_solutions",
        "rational_solutions"}
    for fn, args, kwargs in calls:
        got = _WRAPPERS[fn](*args, **kwargs)
        _srepr_equal(got, _REFERENCES[fn](*args, **kwargs))


def test_gauged_example2_bounds_degrees_without_scalar_operators(
        example2_path, monkeypatch):
    """Example2 under the seeded 3 x 3 gauge of tests/gauged.py (seed 0):
    the eliminations bound every degree of the solve with no
    scalar-operator chain, the polynomial solutions are srepr-identical
    to the reference's, whose bound comes from the chain, and the solve
    ends Solved with verified certificates."""
    system = gauged_system(read_system(example2_path), 0)
    bound, ops, poly = (ratsol.degree_bound, ratsol.scalar_operators,
                        ratsol.polynomial_solutions)
    depth, calls = [0], []

    def bound_spy(*args):
        depth[0] += 1
        try:
            return bound(*args)
        finally:
            depth[0] -= 1

    def ops_spy(*args):
        assert not depth[0], "scalar_operators called by degree_bound"
        return ops(*args)

    def poly_spy(M, m, tower):
        calls.append((dm_to_matrix(_uncleared(M), tower), m, tower))
        return poly(M, m, tower)

    monkeypatch.setattr(ratsol, "degree_bound", bound_spy)
    monkeypatch.setattr(ratsol, "scalar_operators", ops_spy)
    monkeypatch.setattr(closedform, "scalar_operators", ops_spy)
    monkeypatch.setattr(ratsol, "polynomial_solutions", poly_spy)
    out = procedures.solve_liouvillian(system)
    monkeypatch.undo()
    assert out.kind == "Solved"
    assert out.solutions and all(
        verify_certificates(system, sol).ok for sol in out.solutions)
    assert calls
    for M, m, tower in calls:
        _srepr_equal(polynomial_solutions(M, m, tower),
                     reference_polynomial_solutions(M, m, None, tower))


def test_universal_denominator_in_canonical_form():
    """t*x + 1 is x + 1/t as a monic factor over Q(t): u is returned in
    the canonical form of treduce, the reference expanded it."""
    g = t * x + 1
    M = sp.Matrix([[g / shift(g)]])
    _srepr_equal(universal_denominator(M), treduce(g / t))
    assert reference_universal_denominator(M) == x + 1 / t
    _srepr_equal(rational_solutions(M), reference_rational_solutions(M))
    assert rational_solutions(M) == [sp.Matrix([t / g])]


def test_polynomial_solutions_run_without_together_and_expand(monkeypatch):
    """The ansatz and the degree bound are solved on K-matrices and over
    Z[k, t]: sp.together and Expr.expand do not run."""
    g = x * (x + 1)
    cases = [
        (mat_reduce(mat_shift(sp.Matrix([[1, x], [0, 1]]), 2)
                    * sp.diag(shift(g, 2) / g, 2)
                    * sp.Matrix([[1, -x], [0, 1]])), 2, TRIVIAL_TOWER),
        (sp.Matrix([[(x + 1) / x]]), 1, TOWER1),
        (sp.Matrix([[x, 0], [0, 1]]), 1, TRIVIAL_TOWER),
    ]
    want = [sp.srepr(reference_polynomial_solutions(M, m, None, tw))
            for M, m, tw in cases]

    def no_expand(self, *args, **kwargs):
        raise AssertionError("Expr.expand called")

    def no_together(*args, **kwargs):
        raise AssertionError("sp.together called")

    forms = [dm_cleared(dm_from_matrix(M, tw)) for M, m, tw in cases]
    monkeypatch.setattr(sp.Expr, "expand", no_expand)
    monkeypatch.setattr(sp, "together", no_together)
    try:
        got = [ratsol.polynomial_solutions(D, m, tw)
               for D, (_, m, tw) in zip(forms, cases)]
    finally:
        monkeypatch.undo()
    got = [sp.srepr([dm_to_matrix(P, tw) for P in sols])
           for sols, (_, _, tw) in zip(got, cases)]
    assert got == want
    assert want[0] != sp.srepr([])


# ---------------------------------------------------------------------------
# completeness of the gauge assembly

_ENTRY = st.sampled_from([0, 1, -1, 2, x, t, x + t, x * t])


@st.composite
def _slot_bases(draw):
    """k = 2 or 3 slots of 1-3 vectors each, drawn from the columns of a
    planted matrix P: slot i may hold its own column, another slot's
    column, a sum of both or a random vector, so a choice can collide."""
    k = draw(st.integers(2, 3))

    def vec():
        return sp.Matrix([draw(_ENTRY) for _ in range(k)])

    P = [vec() for _ in range(k)]
    slots = []
    for i in range(k):
        slot = []
        for _ in range(draw(st.integers(1, 3))):
            j = draw(st.integers(0, k - 1))
            slot.append(draw(st.sampled_from(
                [P[i], P[j], P[i] + P[j], vec()])))
        slots.append(slot)
    return slots


def test_constant_span_reduce_clears_one_common_denominator():
    """1/x and 1/(x + 1) have the same numerator: the test clears the
    common denominator x*(x + 1) before comparing coefficients."""
    V = sp.Matrix([1 / x, 1 / (x + 1)])
    W = sp.Matrix([1, 1])
    assert _constant_span_reduce([V, W, (t + 1) * V + W], TRIVIAL_TOWER) == [
        V, W]


@settings(max_examples=40, deadline=None)
@given(_slot_bases())
def test_invertible_selection_is_complete_over_constant_combinations(slots):
    """A gauge is returned iff some constant combination per slot is
    invertible, i.e. iff det[sum_j c_1j V_1j, ..., sum_j c_kj V_kj] is a
    nonzero polynomial in the c_ij."""
    k = len(slots)
    combo = sp.Matrix.hstack(*[
        sum((sp.Symbol(f"_c{i}_{j}") * V for j, V in enumerate(slot)),
            sp.zeros(k, 1))
        for i, slot in enumerate(slots)])
    invertible = sp.expand(combo.det(method="berkowitz")) != 0
    G = _invertible_selection(slots, TRIVIAL_TOWER)
    assert (G is not None) == invertible
    if G is not None:
        assert treduce(G.det()) != 0
        assert all(any(mat_eq(G[:, i], V) for V in slot)
                   for i, slot in enumerate(slots))
