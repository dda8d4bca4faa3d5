"""Canonical text rendering and parsing for scalars and polynomials.

The renderer is deterministic: terms appear in descending graded lex order,
coefficients render as ``p/q`` or ``p/q+r/s*sqrt(d)``, and the same string
always comes back for the same value.  The parser accepts the rendered
grammar plus ordinary whitespace, parenthesised subexpressions and ``^``
powers, and is shared by every file format in the package: what the CLI
and the catalog emit, they can read back.

Variables are positional; display names live only here.  The default name
for variable ``i`` (0-based) is ``x{i+1}``.

A ``sqrt(d)`` radicand may be at most :data:`MAX_RADICAND`: checking that
it is square-free takes trial division up to its square root, so a larger
one is rejected with :class:`~linnij.errors.FormatError` instead of
stalling the parse.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatError
from .polyring import Poly
from .exactfield import ONE, Scalar

MAX_RADICAND = 10**12


def default_names(nvars: int) -> list[str]:
    return ["x%d" % (i + 1) for i in range(nvars)]


# -- formatting --------------------------------------------------------------


def format_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return "%d/%d" % (value.numerator, value.denominator)


def format_scalar(value: Scalar) -> str:
    if value.irr == 0:
        return format_fraction(value.rat)
    irr_part = "%s*sqrt(%d)" % (format_fraction(abs(value.irr)), value.rad)
    if value.irr < 0:
        irr_part = "-" + irr_part
    if value.rat == 0:
        return irr_part
    if value.irr < 0:
        return format_fraction(value.rat) + irr_part
    return format_fraction(value.rat) + "+" + irr_part


def _is_pure(value: Scalar) -> bool:
    return value.rat == 0 or value.irr == 0


def format_poly(p: Poly, names: list[str] | None = None) -> str:
    if names is None:
        names = default_names(p.nvars)
    elif len(names) != p.nvars:
        raise FormatError("expected %d variable names" % p.nvars)
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    for exps, coeff in p.sorted_terms():
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append("%s^%d" % (names[i], e))
        mono = "*".join(factors)
        if _is_pure(coeff):
            negative = coeff.sign() < 0
            mag = -coeff if negative else coeff
            if not mono:
                atom = format_scalar(mag)
            elif mag == ONE:
                atom = mono
            else:
                atom = "%s*%s" % (format_scalar(mag), mono)
            sign = "-" if negative else "+"
        else:
            atom = "(%s)" % format_scalar(coeff)
            if mono:
                atom += "*" + mono
            sign = "+"
        if not pieces:
            pieces.append(atom if sign == "+" else "-" + atom)
        else:
            pieces.append((" + " if sign == "+" else " - ") + atom)
    return "".join(pieces)


# -- parsing -----------------------------------------------------------------

_TOKEN = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip() == "":
                break
            raise FormatError("unexpected character %r in %r" % (text[pos], text))
        pos = m.end()
        if m.lastgroup:
            tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens


class _Parser:
    """Recursive-descent parser over + - * / ^ ( ) int name, producing a Poly."""

    def __init__(self, tokens, nvars, index_of):
        self.tokens = tokens
        self.pos = 0
        self.nvars = nvars
        self.index_of = index_of

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise FormatError("expected %r" % op)

    def parse(self) -> Poly:
        result = self.sum_expr()
        if self.pos != len(self.tokens):
            raise FormatError("trailing input after polynomial")
        return result

    def sum_expr(self) -> Poly:
        kind, value = self.peek()
        negate = False
        if kind == "op" and value in "+-":
            self.take()
            negate = value == "-"
        acc = self.product_expr()
        if negate:
            acc = -acc
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.take()
                rhs = self.product_expr()
                acc = acc - rhs if value == "-" else acc + rhs
            else:
                return acc

    def product_expr(self) -> Poly:
        acc = self.power_expr()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "*/":
                self.take()
                rhs = self.power_expr()
                if value == "*":
                    acc = acc * rhs
                else:
                    try:
                        divisor = rhs.constant_value()
                    except ValueError:
                        raise FormatError("can only divide by a constant")
                    acc = acc * Poly.constant(self.nvars, divisor.inverse())
            else:
                return acc

    def power_expr(self) -> Poly:
        base = self.atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.take()
            kind, value = self.take()
            if kind != "int":
                raise FormatError("exponent must be an integer")
            return base ** int(value)
        return base

    def atom(self) -> Poly:
        kind, value = self.take()
        if kind == "int":
            return Poly.constant(self.nvars, Scalar(int(value)))
        if kind == "op" and value == "(":
            inner = self.sum_expr()
            self.expect_op(")")
            return inner
        if kind == "op" and value == "-":
            return -self.atom()
        if kind == "name":
            if value == "sqrt":
                self.expect_op("(")
                kind, inner = self.take()
                if kind != "int":
                    raise FormatError("sqrt() takes an integer radicand")
                self.expect_op(")")
                try:
                    radicand = int(inner)
                    if radicand > MAX_RADICAND:
                        raise FormatError("sqrt() radicand %s exceeds the limit %d"
                                          % (inner, MAX_RADICAND))
                    root = Scalar(0, 1, radicand)
                except ValueError as exc:
                    raise FormatError(str(exc))
                return Poly.constant(self.nvars, root)
            index = self.index_of.get(value)
            if index is None:
                raise FormatError("unknown variable %r" % value)
            return Poly.variable(self.nvars, index)
        raise FormatError("unexpected token %r" % (value,))


def parse_poly(text: str, names: list[str]) -> Poly:
    """Parse the canonical polynomial grammar over the given variable names."""
    index_of = {name: i for i, name in enumerate(names)}
    if len(index_of) != len(names):
        raise FormatError("duplicate variable names")
    parser = _Parser(_tokenize(text), len(names), index_of)
    try:
        return parser.parse()
    except ZeroDivisionError:
        raise FormatError("division by zero in %r" % text)


def parse_scalar(text: str) -> Scalar:
    value = parse_poly(text, [])
    return value.constant_value()


def format_scalar_matrix(rows: list[list[Scalar]]) -> list[list[str]]:
    return [[format_scalar(v) for v in row] for row in rows]


def parse_scalar_matrix(rows: list[list[str]]) -> list[list[Scalar]]:
    return [[parse_scalar(cell) for cell in row] for row in rows]
