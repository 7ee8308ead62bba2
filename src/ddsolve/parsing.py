"""Expression grammar for system and solution files.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := base ('^' exponent)?          # '^' right-associative
    base   := integer | 'x' | 't' | 'theta' | '(' expr ')' | '-' base

Exponents are (possibly negative) integers, checked where they are
parsed, so a ParseError points at the offending exponent.
:func:`parse_expression` returns an :class:`ExprTree`, which is read
into the field in one of two ways.  :func:`parse_element` evaluates it
with no sympy expression on the way: into Q(x, t, theta), theta an
indeterminate, as a fraction over Q[x, t, theta] cancelled once at the
end (:class:`~ddsolve.fields.Fractions`), or into K[theta]/(m) over a tower
(:class:`~ddsolve.fields.TowerArithmetic`).  It gives an element of a
tower in its K-form, the form in which system and solution files reach
the procedures; :func:`parse_theta_poly` gives a minimal polynomial the
same way.  :func:`parse_ratfunc` evaluates the tree to a sympy expression
(:func:`tree_to_sympy`) and reduces it with
:func:`~ddsolve.fields.treduce`: the path of the sympy-facing API and of
``tools petkovsek``.  A division by zero is a ZeroDivisionError, with
``0^-1`` and the denominators that vanish in the tower.

:func:`print_element` writes an element of a tower, given by its K-form,
back in the grammar with a monic denominator and integer-normalized
content, so that ``parse(print(f))`` equals ``f`` as a rational function;
:func:`print_matrix` prints a K-form matrix with it, and the report and
the solution file are printed this way, with no sympy expression on the
way.  :func:`print_ratfunc` is the door of sympy expressions into the same
canonical form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

import sympy as sp
from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from .fields import (_QQ_XTTH, TRIVIAL_TOWER, FieldError, Fractions, Tower,
                     TowerArithmetic, _field_element, _lcm, _tower_element,
                     from_regular, t, theta, theta_poly, treduce, x)

__all__ = ["ExprTree", "ParseError", "parse_expression", "parse_element",
           "parse_theta_poly", "parse_ratfunc", "tree_to_sympy",
           "print_element", "print_matrix", "print_ratfunc"]

_NAMES = ("x", "t", "theta")   # the generators of _QQ_XTTH, in its order
_XTTH = _QQ_XTTH.field.ring    # Z[x, t, theta], where the printer works
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
    ``args``.  The exponent of a '^' node is an 'int' leaf: the parser
    evaluates it and rejects a value that is not an integer.
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
            node = ExprTree("^", args=(node, ExprTree(
                "int", value=self.exponent())))
        return node

    def exponent(self) -> int:
        """The value of an exponent: an integer, or an integer '^' an
        exponent (right-associative).  ParseError at its offset unless the
        value is an integer (``2^-1``, ``0^-1``)."""
        self._skip_ws()
        start = self.pos
        value = Fraction(self.integer_or_sign())
        if self._peek() == "^":
            self.pos += 1
            e = self.exponent()
            value = value ** e if value or e >= 0 else None
        if value is None or value.denominator != 1:
            raise ParseError("exponent must be an integer", start)
        return int(value)

    def integer_or_sign(self) -> int:
        if self._peek() == "-":
            self.pos += 1
            return -self.integer().value
        return self.integer().value

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
            if name not in _NAMES:
                raise ParseError(f"unknown symbol '{name}'", start)
            return ExprTree("var", value=name)
        raise ParseError("expected a number, variable, or '('", self.pos)


def parse_expression(s: str) -> ExprTree:
    return _Parser(s).parse()


def _evaluate(tree: ExprTree, ar):
    """The value of tree in the arithmetic ar
    (:class:`~ddsolve.fields.Fractions` or
    :class:`~ddsolve.fields.TowerArithmetic`), bottom up."""
    op, args = tree.op, tree.args
    if op == "int":
        return ar.integer(tree.value)
    if op == "var":
        return ar.var(tree.value)
    if op == "neg":
        return ar.neg(_evaluate(args[0], ar))
    if op == "^":
        return ar.pow(_evaluate(args[0], ar), args[1].value)
    a, b = _evaluate(args[0], ar), _evaluate(args[1], ar)
    if op == "+":
        return ar.add(a, b)
    if op == "-":
        return ar.add(a, ar.neg(b))
    if op == "*":
        return ar.mul(a, b)
    if op == "/":
        return ar.mul(a, ar.inv(b))
    raise ValueError(f"unknown node {op}")


def _fraction(s: str):
    """s as an element of Q(x, t, theta), theta an indeterminate."""
    ar = Fractions(_QQ_XTTH)
    return ar.element(_evaluate(parse_expression(s), ar))


def parse_theta_poly(s: str) -> list:
    """s as a dense polynomial in theta over K = Q(x, t), highest degree
    first: the form of a minimal polynomial.  FieldError when theta occurs
    in a denominator."""
    return theta_poly(_fraction(s))


def parse_element(s: str, tower: Tower = TRIVIAL_TOWER) -> list:
    """s as an element of the tower, in its K-form: a dense polynomial in
    theta over K = Q(x, t), highest degree first, reduced mod the minimal
    polynomial; on the trivial tower a list of at most one element of K.
    ParseError, ZeroDivisionError for a division by zero in the tower, and
    FieldError for theta in a value on the trivial tower."""
    if not tower.trivial:
        return _evaluate(parse_expression(s), TowerArithmetic(tower))
    f = _fraction(s)
    if f.numer.degree(2) > 0 or f.denom.degree(2) > 0:
        raise FieldError(f"entry not in Q(x, t): {s}")
    return theta_poly(f)


def tree_to_sympy(tree: ExprTree) -> sp.Expr:
    """The value of tree as a sympy expression, not reduced."""
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
        if a == 0 and b < 0:
            # sympy's zoo, which a later operation may absorb
            raise ZeroDivisionError("division by zero in expression")
        return a ** int(b)
    raise ValueError(f"unknown node {tree.op}")


def parse_ratfunc(s: str, tower: Tower = TRIVIAL_TOWER) -> sp.Expr:
    """s as a sympy expression in the canonical form of
    :func:`~ddsolve.fields.treduce`; on the trivial tower theta is an
    indeterminate."""
    return treduce(tree_to_sympy(parse_expression(s)), tower)


# ---------------------------------------------------------------------------
# canonical printing

def _print_monomial(coeff, monom) -> str:
    parts = []
    for g, e in zip(_NAMES, monom):
        if e == 1:
            parts.append(str(g))
        elif e > 1:
            parts.append(f"{g}^{e}")
    if not parts:
        return _print_rational(coeff)
    body = "*".join(parts)
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{_print_rational(coeff)}*{body}"


def _print_rational(c) -> str:
    """A rational number (an element of QQ) in the grammar."""
    p, q = int(c.numerator), int(c.denominator)
    if q == 1:
        return str(p)
    return f"{p}/{q}" if p >= 0 else f"-{-p}/{q}"


def _print_poly(p, den: int = 1) -> str:
    """p / den, p over Z[x, t, theta]."""
    out = ""
    for monom, coeff in sorted(p.terms(), reverse=True):
        s = _print_monomial(QQ(coeff, den), monom)
        if not out:
            out = s
        elif s.startswith("-"):
            out += "-" + s[1:]
        else:
            out += "+" + s
    return out or "0"


def print_element(a: list, tower: Tower = TRIVIAL_TOWER) -> str:
    """The canonical string of :func:`print_ratfunc` for an element a of
    the tower (a dense polynomial in theta over K = Q(x, t), highest degree
    first, reduced mod the minimal polynomial first over a tower), printed
    from its theta-coordinates n_k/d_k over Z[x, t].  Over the lcm D of the
    d_k, a = (sum_k n_k (D/d_k) theta^k) / D, and this fraction is reduced
    in Q(x, t, theta): a prime power p^e that exactly divides D exactly
    divides some d_k, so p divides neither n_k nor D/d_k.  So no gcd runs
    beyond the lcm, and none at all for a single coordinate."""
    if not tower.trivial:
        a = tower.reduce(a)
    den = _lcm(c.denom for c in a if c)
    num = {}
    for k, c in enumerate(reversed(a)):
        if c:
            n = c.numer if c.denom == den else c.numer * den.exquo(c.denom)
            for (i, j), v in n.items():
                num[(i, j, k)] = v
    return _print_fraction(_XTTH.from_dict(num), _XTTH.from_dict(
        {(i, j, 0): v for (i, j), v in den.items()}))


def print_matrix(D: DomainMatrix, tower: Tower = TRIVIAL_TOWER) -> list:
    """The rows of the matrix over the tower whose K-form is D, each entry
    printed by :func:`print_element`."""
    deg = tower.degree
    cols = D.shape[1] // deg
    entries = [print_element(a, tower) for a in from_regular(D, deg)]
    return [entries[i:i + cols] for i in range(0, len(entries), cols)]


def print_ratfunc(f, tower: Tower = TRIVIAL_TOWER) -> str:
    """The canonical string of the expression f: on the trivial tower of
    its reduced fraction in Q(x, t, theta) (theta an indeterminate), on a
    tower of its element there (:func:`print_element`).  The door of the
    expression API into the printer."""
    if not tower.trivial:
        return print_element(_tower_element(f, tower))
    f = _field_element(_QQ_XTTH, f)
    return _print_fraction(f.numer, f.denom)


def _print_fraction(pn, pd) -> str:
    """Canonical string of the reduced fraction pn/pd over Z[x, t, theta]:
    c * N / D with D monic (lex leading coefficient 1), N primitive over
    the integers with positive leading coefficient, and c a rational
    constant."""
    if not pn:
        return "0"
    # pn / pd = c * prim / (pd / lc), pd / lc monic and prim primitive
    lc, cont = pd.LC, pn.content()
    prim, c = pn.quo_ground(cont), QQ(cont, lc)
    if prim.LC < 0:
        prim, c = -prim, -c
    num_str = _print_poly(prim)
    den_str = _print_poly(pd, lc)
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
