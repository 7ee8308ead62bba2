"""Seeded generator for the ``planted-gauge`` workload.

Each member is a bundled order-2 system transformed by a unimodular gauge
G over Z[x, t] whose entries have degree <= 1 in x and in t:

    A' = sigma(G)^-1 A G,        B' = G^-1 (B G - delta(G)).

Z = G^-1 Y maps the solutions of one system onto those of the other, so
integrability, irreducibility and the liouvillian verdict carry over: the
known verdict of a member is the known verdict of its source, fixed by
construction and never by what the solver returns.
"""

from __future__ import annotations

import json
import pathlib
import random

import sympy as sp

x, t = sp.symbols("x t")

# source system -> how many members a pass holds.  Only the mix is fixed:
# the seed picks the gauges, and the work per pass varies with them.
MEMBERS = (("hermite", 2), ("example1", 2))

# det = +-1, entries in {-1, 0, 1}: G = U * E(p) keeps every entry of
# degree <= 1 when E(p) is elementary with a linear p.
_UNIMODULAR = (
    ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
    ((1, 0), (1, 1)), ((1, 0), (0, -1)), ((0, -1), (1, 0)),
)


def _linear(rng: random.Random) -> sp.Expr:
    a, b, c = (rng.randint(-2, 2) for _ in range(3))
    while b == 0 and c == 0:
        b, c = rng.randint(-2, 2), rng.randint(-2, 2)
    return a + b * x + c * t


def random_gauge(rng: random.Random) -> sp.Matrix:
    """Unimodular 2 x 2 matrix over Z[x, t], entries of degree <= 1."""
    p = _linear(rng)
    E = (sp.Matrix([[1, p], [0, 1]]) if rng.random() < 0.5
         else sp.Matrix([[1, 0], [p, 1]]))
    return sp.Matrix(rng.choice(_UNIMODULAR)) * E


def _format_poly(p: sp.Expr) -> str:
    """Write a polynomial in the ddsolve grammar.  Every term carries its
    coefficient, so no unary minus stands before a power (the grammar
    reads -x^2 as (-x)^2)."""
    terms = sp.Poly(p, x, t, domain=sp.QQ).terms()
    out = []
    for (i, j), c in terms:
        c = sp.Rational(c)
        coeff = str(abs(c.p)) if c.q == 1 else f"{abs(c.p)}/{c.q}"
        factors = [coeff] + [str(v) if e == 1 else f"{v}^{e}"
                             for v, e in ((x, i), (t, j)) if e]
        term = "*".join(factors)
        if not out:
            out.append(term if c > 0 else f"-{term}")
        else:
            out.append(f"{'+' if c > 0 else '-'} {term}")
    return " ".join(out) or "0"


def _format(e: sp.Expr) -> str:
    num, den = sp.fraction(sp.cancel(e))
    if den == 1:
        return f"({_format_poly(num)})"
    return f"({_format_poly(num)})/({_format_poly(den)})"


def _parse_bundled(entry: str) -> sp.Expr:
    # bundled files are written by ddsolve's canonical printer: no unary
    # minus before a power, so '^' -> '**' is a faithful translation
    return sp.sympify(entry.replace("^", "**"), locals={"x": x, "t": t})


def gauge_system(system: dict, G: sp.Matrix) -> dict:
    n = system["n"]
    A, B = (sp.Matrix(n, n, [_parse_bundled(e) for row in system[key]
                             for e in row]) for key in ("A", "B"))
    Ginv = G.inv()   # polynomial, since det G = +-1
    A2 = (G.subs(x, x + 1).inv() * A * G).applyfunc(sp.cancel)
    B2 = (Ginv * (B * G - G.diff(t))).applyfunc(sp.cancel)
    return {
        "n": n,
        "A": [[_format(A2[i, j]) for j in range(n)] for i in range(n)],
        "B": [[_format(B2[i, j]) for j in range(n)] for i in range(n)],
        "assumptions": system.get("assumptions", {}),
    }


def generate(seed: int, systems_dir: pathlib.Path):
    """Yield (name, source, gauge, system dict) for one seed."""
    rng = random.Random(seed)
    for source, count in MEMBERS:
        with open(systems_dir / f"{source}.json", encoding="utf-8") as fh:
            system = json.load(fh)
        for k in range(count):
            G = random_gauge(rng)
            yield f"{source}-g{k}", source, G, gauge_system(system, G)


def write_members(seed: int, systems_dir: pathlib.Path,
                  outdir: pathlib.Path) -> list:
    """Write one system file per member; return [(name, source, path)]."""
    outdir.mkdir(parents=True, exist_ok=True)
    out = []
    for name, source, _G, system in generate(seed, systems_dir):
        path = outdir / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(system, fh, indent=2, sort_keys=True)
            fh.write("\n")
        out.append((name, source, path))
    return out
