"""Expression grammar for system and solution files.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' exponent)?          # '^' right-associative
    base   := integer | 'x' | 't' | 'theta' | '(' expr ')' | '-' base

Exponents are (possibly negative) integers.  :func:`parse_expression`
returns an :class:`ExprTree`; :func:`parse_ratfunc` evaluates it to a
sympy expression.  :func:`print_ratfunc` writes a rational function back
in the grammar with a monic denominator and integer-normalized content,
so that ``parse(print(f))`` equals ``f`` as a rational function.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional, Tuple

import sympy as sp

from .fields import TRIVIAL_TOWER, Tower, t, theta, treduce, x

__all__ = ["ExprTree", "ParseError", "parse_expression", "parse_ratfunc",
           "tree_to_sympy", "print_ratfunc"]

_VARS = {"x": x, "t": t, "theta": theta}


class ParseError(ValueError):
    """Syntax error with the 0-based offset of the offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"error at offset {position}: {message}")
        self.position = position


@dataclass(frozen=True)
class ExprTree:
    """Node of a parsed expression.

    op is one of 'int', 'var', '+', '-', '*', '/', '^', 'neg'; leaves
    carry their value in ``value``; inner nodes their operands in
    ``args``.
    """

    op: str
    value: Optional[object] = None
    args: Tuple["ExprTree", ...] = ()


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str):
        if self._peek() != ch:
            raise ParseError(f"expected '{ch}'", self.pos)
        self.pos += 1

    def parse(self) -> ExprTree:
        tree = self.expr()
        if self._peek():
            raise ParseError("unexpected trailing input", self.pos)
        return tree

    def expr(self) -> ExprTree:
        node = self.term()
        while self._peek() in ("+", "-"):
            op = self.text[self.pos]
            self.pos += 1
            node = ExprTree(op, args=(node, self.term()))
        return node

    def term(self) -> ExprTree:
        node = self.factor()
        while self._peek() in ("*", "/"):
            op = self.text[self.pos]
            self.pos += 1
            node = ExprTree(op, args=(node, self.factor()))
        return node

    def factor(self) -> ExprTree:
        node = self.base()
        if self._peek() == "^":
            self.pos += 1
            node = ExprTree("^", args=(node, self.exponent()))
        return node

    def exponent(self) -> ExprTree:
        # integer, or integer '^' exponent (right-associative)
        node = self.integer_or_sign()
        if self._peek() == "^":
            self.pos += 1
            node = ExprTree("^", args=(node, self.exponent()))
        return node

    def integer_or_sign(self) -> ExprTree:
        if self._peek() == "-":
            self.pos += 1
            return ExprTree("neg", args=(self.integer(),))
        return self.integer()

    def integer(self) -> ExprTree:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", start)
        return ExprTree("int", value=int(self.text[start:self.pos]))

    def base(self) -> ExprTree:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            node = self.expr()
            self._expect(")")
            return node
        if ch == "-":
            self.pos += 1
            return ExprTree("neg", args=(self.base(),))
        if ch.isdigit():
            return self.integer()
        if ch.isalpha():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isalpha():
                self.pos += 1
            name = self.text[start:self.pos]
            if name not in _VARS:
                raise ParseError(f"unknown symbol '{name}'", start)
            return ExprTree("var", value=name)
        raise ParseError("expected a number, variable, or '('", self.pos)


def parse_expression(s: str) -> ExprTree:
    return _Parser(s).parse()


def tree_to_sympy(tree: ExprTree) -> sp.Expr:
    if tree.op == "int":
        return sp.Integer(tree.value)
    if tree.op == "var":
        return _VARS[tree.value]
    if tree.op == "neg":
        return -tree_to_sympy(tree.args[0])
    a = tree_to_sympy(tree.args[0])
    b = tree_to_sympy(tree.args[1])
    if tree.op == "+":
        return a + b
    if tree.op == "-":
        return a - b
    if tree.op == "*":
        return a * b
    if tree.op == "/":
        if b == 0:
            raise ZeroDivisionError("division by zero in expression")
        return a / b
    if tree.op == "^":
        if not b.is_Integer:
            raise ParseError("exponent must be an integer", 0)
        return a ** int(b)
    raise ValueError(f"unknown node {tree.op}")


def parse_ratfunc(s: str, tower: Tower = TRIVIAL_TOWER) -> sp.Expr:
    return treduce(tree_to_sympy(parse_expression(s)), tower)


# ---------------------------------------------------------------------------
# canonical printing

_GENS = (x, t, theta)


def _print_monomial(coeff: sp.Rational, monom) -> str:
    parts = []
    for g, e in zip(_GENS, monom):
        if e == 1:
            parts.append(str(g))
        elif e > 1:
            parts.append(f"{g}^{e}")
    c = sp.Rational(coeff)
    if not parts:
        return _print_rational(c)
    body = "*".join(parts)
    if c == 1:
        return body
    if c == -1:
        return f"-{body}"
    return f"{_print_rational(c)}*{body}"


def _print_rational(c: sp.Rational) -> str:
    c = sp.Rational(c)
    if c.q == 1:
        return str(c.p)
    return f"{c.p}/{c.q}" if c.p >= 0 else f"-{-c.p}/{c.q}"


def _print_poly(p: sp.Poly) -> str:
    terms = sorted(p.terms(), key=lambda kv: kv[0], reverse=True)
    out = ""
    for monom, coeff in terms:
        s = _print_monomial(coeff, monom)
        if not out:
            out = s
        elif s.startswith("-"):
            out += "-" + s[1:]
        else:
            out += "+" + s
    return out or "0"


@functools.lru_cache(maxsize=4096)
def print_ratfunc(f, tower: Tower = TRIVIAL_TOWER) -> str:
    """Canonical string: c * N / D with D monic (graded-lex leading
    coefficient 1), N primitive over the integers with positive leading
    coefficient, and c a rational constant.  Memoized on (f, tower): the
    report and the solution file print the same entries."""
    f = treduce(f, tower)
    num, den = sp.together(f).as_numer_denom()
    pn = sp.Poly(sp.expand(num), *_GENS, domain=sp.QQ)
    pd = sp.Poly(sp.expand(den), *_GENS, domain=sp.QQ)
    if pn.is_zero:
        return "0"
    lc_d = pd.coeffs()[0]
    pd = pd.mul_ground(1 / lc_d)
    pn = pn.mul_ground(1 / lc_d)
    cont, prim = pn.clear_denoms(convert=True)[1].primitive()
    c = sp.Rational(cont, pn.clear_denoms()[0])
    if prim.coeffs()[0] < 0:
        prim = prim.mul_ground(-1)
        c = -c
    num_str = _print_poly(prim)
    den_str = _print_poly(pd)
    parts = []
    if c != 1 or (num_str == "1" and den_str == "1"):
        parts.append(_print_rational(c))
    if num_str != "1":
        parts.append(f"({num_str})" if _needs_parens(num_str) else num_str)
    if not parts:
        parts.append("1")
    out = "*".join(parts)
    if den_str != "1":
        den_wrapped = f"({den_str})" if _needs_parens(den_str) else den_str
        out = f"{out}/{den_wrapped}"
    return out


def _needs_parens(s: str) -> bool:
    depth = 0
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and ch in "+-*/":
            return True
    return False
