import pathlib
import random

import pytest
import sympy as sp

from ddsolve.fields import t, x

ROOT = pathlib.Path(__file__).resolve().parent.parent
SYSTEMS = ROOT / "systems"


@pytest.fixture(scope="session")
def example1_path():
    return str(SYSTEMS / "example1.json")


@pytest.fixture(scope="session")
def example2_path():
    return str(SYSTEMS / "example2.json")


@pytest.fixture(scope="session")
def hermite_path():
    return str(SYSTEMS / "hermite.json")


@pytest.fixture(scope="session")
def solved_example2(example2_path):
    """(system, outcome) of one solve of example2; read, never modified."""
    from ddsolve.files import read_system
    from ddsolve.procedures import solve_liouvillian

    system = read_system(example2_path)
    return system, solve_liouvillian(system)


def random_ratfunc(rng: random.Random, max_deg: int = 2,
                   coeff: int = 4) -> sp.Expr:
    """Random nonzero rational function of x and t with small degrees."""
    def poly():
        return sum(rng.randint(-coeff, coeff) * x**i * t**j
                   for i in range(max_deg + 1) for j in range(max_deg))

    num = poly()
    while num == 0:
        num = poly()
    den = poly()
    while den == 0:
        den = poly()
    return sp.cancel(num / den)


def random_poly_x(rng: random.Random, max_deg: int = 3,
                  coeff: int = 3) -> sp.Poly:
    """Random nonzero polynomial in x over Z."""
    while True:
        p = sum(rng.randint(-coeff, coeff) * x**i
                for i in range(max_deg + 1))
        if p != 0:
            return sp.expand(p)


def random_invertible_matrix(rng: random.Random, n: int) -> sp.Matrix:
    """Random invertible matrix with small rational-function entries."""
    while True:
        M = sp.Matrix(n, n, lambda i, j: sp.Rational(
            rng.randint(-3, 3), rng.randint(1, 3)))
        # sprinkle a few x / t entries
        for _ in range(n):
            i, j = rng.randrange(n), rng.randrange(n)
            M[i, j] = M[i, j] + rng.choice([x, t, x + t, 0])
        if M.det() != 0:
            return M
