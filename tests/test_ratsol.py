import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.matrices import DomainMatrix

import ddsolve.closedform as closedform
import ddsolve.procedures as procedures
from ddsolve.fields import (QQ_XT, TRIVIAL_TOWER, dm_clear, dm_from_matrix,
                            dm_inv, dm_to_matrix, make_tower, mat_inv, t,
                            theta, treduce, x)
from ddsolve.files import read_system
from ddsolve.sequences import verify_certificates
import ddsolve.ratsol as ratsol
from ddsolve.ratsol import RationalSolutionBasis

from gauged import gauged_system
from helpers import (mat_eq, mat_reduce, mat_shift, nullspace_over_Qt,
                     reference_polynomial_solutions,
                     reference_rational_solutions, reference_scalar_operators,
                     reference_universal_denominator, shift, teq)


# ratsol takes and returns K-forms; these call it on sympy matrices

def universal_denominator(M, m=1, tower=TRIVIAL_TOWER):
    D = dm_from_matrix(M, tower)
    u = ratsol.universal_denominator(D, dm_inv(D), m)
    return dm_to_matrix(DomainMatrix([[u]], (1, 1), QQ_XT))[0]


def polynomial_solutions(M, m=1, degree_bound=None, tower=TRIVIAL_TOWER):
    return [dm_to_matrix(P, tower) for P in ratsol.polynomial_solutions(
        dm_from_matrix(M, tower), m, degree_bound, tower)]


def rational_solutions(M, m=1, tower=TRIVIAL_TOWER):
    D = dm_from_matrix(M, tower)
    basis = ratsol.rational_solutions(D, dm_inv(D), m, tower).basis
    return RationalSolutionBasis(m, [dm_to_matrix(V, tower) for V in basis])


def scalar_operators(M, m):
    return [list(dm_to_matrix(op)) for op in ratsol.scalar_operators(
        dm_from_matrix(M), m)]


def gauge_from_ratios(A, ratios, m):
    D = dm_from_matrix(A)
    G = ratsol.gauge_from_ratios(D, dm_inv(D),
                                 dm_from_matrix(sp.diag(*ratios)), m)
    return None if G is None else dm_to_matrix(G)


def _degree_bound(M, m, tower):
    return ratsol._degree_bound(*dm_clear(dm_from_matrix(M, tower)), m)


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
    assert polynomial_solutions(sp.Matrix([[1 + theta / x]]), 1, None,
                                tw) == []
    sols = polynomial_solutions(sp.Matrix([[(x + 1) / x]]), 1, None, tw)
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
        basis = rational_solutions(M).basis
        assert len(basis) >= 2
        for V in basis:
            assert _substitutes(M, 1, V)


def test_rational_solutions_none():
    # sigma(y) = x*y has no nonzero rational solution (Gamma growth)
    M = sp.Matrix([[x]])
    assert rational_solutions(M).basis == []


def test_rational_solutions_step_two():
    # sigma^2(y) = (x+2)(x+3)/(x(x+1)) y has solution y = x(x+1)
    r = (x + 2) * (x + 3) / (x * (x + 1))
    basis = rational_solutions(sp.Matrix([[r]]), 2).basis
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

_FACTORS = [1, x, x + 1, x - 2, x + t, t * x + 1]


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
    _srepr_equal(polynomial_solutions(M, m, None, tower),
                 reference_polynomial_solutions(M, m, None, tower))
    u = universal_denominator(M, m, tower)
    u_ref = reference_universal_denominator(M, m, tower)
    if tower.trivial:
        _srepr_equal(u, treduce(u_ref))
        _srepr_equal(scalar_operators(M, m),
                     reference_scalar_operators(M, m, tower))
        _srepr_equal(rational_solutions(M, m).basis,
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
                # references invert M themselves
                if _name == "scalar_operators":
                    tower, extra = TRIVIAL_TOWER, ()
                elif _name == "universal_denominator":
                    tower = towers[-1]
                    extra = (tower,)
                else:
                    tower, extra = args[-1], ()
                rest = args[1:] if _name in ("universal_denominator",
                                             "rational_solutions") else args
                current[-1].append((_name, (dm_to_matrix(M, tower), *rest)
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
    "polynomial_solutions": reference_polynomial_solutions,
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
        if fn == "rational_solutions":
            got = got.basis
        _srepr_equal(got, _REFERENCES[fn](*args, **kwargs))


def test_gauged_example2_bounds_degrees_without_scalar_operators(
        example2_path, monkeypatch):
    """Example2 under the seeded 3 x 3 gauge of tests/gauged.py (seed 0):
    the eliminations bound every degree of the solve with no
    scalar-operator chain, the polynomial solutions are srepr-identical
    to the reference's, whose bound comes from the chain, and the solve
    ends Solved with verified certificates."""
    system = gauged_system(read_system(example2_path), 0)
    bound, ops, poly = (ratsol._degree_bound, ratsol.scalar_operators,
                        ratsol.polynomial_solutions)
    depth, calls = [0], []

    def bound_spy(*args):
        depth[0] += 1
        try:
            return bound(*args)
        finally:
            depth[0] -= 1

    def ops_spy(*args):
        assert not depth[0], "scalar_operators called by _degree_bound"
        return ops(*args)

    def poly_spy(M, m, degree_bound, tower):
        calls.append((dm_to_matrix(M, tower), m, degree_bound, tower))
        return poly(M, m, degree_bound, tower)

    monkeypatch.setattr(ratsol, "_degree_bound", bound_spy)
    monkeypatch.setattr(ratsol, "scalar_operators", ops_spy)
    monkeypatch.setattr(closedform, "scalar_operators", ops_spy)
    monkeypatch.setattr(ratsol, "polynomial_solutions", poly_spy)
    out = procedures.solve_liouvillian(system)
    monkeypatch.undo()
    assert out.kind == "Solved"
    assert out.solutions and all(
        verify_certificates(system, sol).ok for sol in out.solutions)
    assert calls
    for M, m, degree_bound, tower in calls:
        _srepr_equal(polynomial_solutions(M, m, degree_bound, tower),
                     reference_polynomial_solutions(M, m, degree_bound,
                                                    tower))


def test_universal_denominator_in_canonical_form():
    """t*x + 1 is x + 1/t as a monic factor over Q(t): u is returned in
    the canonical form of treduce, the reference expanded it."""
    g = t * x + 1
    M = sp.Matrix([[g / shift(g)]])
    _srepr_equal(universal_denominator(M), treduce(g / t))
    assert reference_universal_denominator(M) == x + 1 / t
    _srepr_equal(rational_solutions(M).basis, reference_rational_solutions(M))
    assert rational_solutions(M).basis == [sp.Matrix([t / g])]


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

    forms = [dm_from_matrix(M, tw) for M, m, tw in cases]
    monkeypatch.setattr(sp.Expr, "expand", no_expand)
    monkeypatch.setattr(sp, "together", no_together)
    try:
        got = [ratsol.polynomial_solutions(D, m, None, tw)
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
