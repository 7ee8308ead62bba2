import random

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from ddsolve.fields import (TRIVIAL_TOWER, make_tower, mat_inv, mat_reduce,
                            mat_shift, shift, t, teq, theta, treduce, x)
import ddsolve.ratsol as ratsol
from ddsolve.ratsol import (UnsupportedCase, _constant_span_reduce,
                            _degree_bound, _nullspace_over_Qt,
                            gauge_from_ratios, polynomial_solutions,
                            rational_solutions, scalar_operators,
                            universal_denominator)


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
    ops = scalar_operators(M, 1, TRIVIAL_TOWER)
    assert len(ops) == 2
    # y = first coordinate of Y = (g, 0) solves the first operator
    y = g
    p = ops[0]
    acc = sum(sp.cancel(p[i] * shift(y, i)) for i in range(len(p)))
    assert sp.cancel(acc) == 0


def test_degree_bound_failure_is_unsupported(monkeypatch):
    """With ord -1 and a singular leading matrix the bound needs the scalar
    relations; when their indicial analysis fails there is no bound."""
    M = sp.Matrix([[x, 0], [0, 1]])
    assert _degree_bound(M, 1, TRIVIAL_TOWER) == 0
    monkeypatch.setattr(ratsol, "_scalar_degree_candidates",
                        lambda op, m, tower: None)
    with pytest.raises(UnsupportedCase):
        _degree_bound(M, 1, TRIVIAL_TOWER)


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
    got = _nullspace_over_Qt(equations, list(us))
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
