"""Canonical text rendering and parsing for scalars and polynomials.

The renderer is deterministic: terms appear in descending graded lex order,
coefficients render as ``p/q`` or ``p/q+r/s*sqrt(d)``, and the same string
always comes back for the same value.  The parser accepts the rendered
grammar plus ordinary whitespace, parenthesised subexpressions and ``^``
powers, and is shared by every file format in the package: what the CLI
and the catalog emit, they can read back.

A term is built where it is read.  A run of integer and variable factors
(``c*x^e*y^f*...``, the shape of every rendered term with a rational
coefficient) goes straight into one rational coefficient and one exponent
list, and each sum adds its terms into one dict, through the ring's term
kernel, that becomes its polynomial.  Only a parenthesised or ``sqrt()``
factor is a :class:`~linnij.polyring.Poly` of its own; the ring's product
kernel adds its product with the term's coefficient and monomial straight
into the sum.  A unary minus, at the start of a sum or before any factor
of a product, flips the sign of its term, so ``^`` binds tighter than it
everywhere: ``x1*-x2^2`` is ``-(x1*x2^2)``.

Variables are positional; display names live only here.  The default name
for variable ``i`` (0-based) is ``x{i+1}``.

A ``sqrt(d)`` radicand may be at most :data:`MAX_RADICAND`: checking that
it is square-free takes trial division up to its square root, so a larger
one is rejected with :class:`~linnij.errors.FormatError` instead of
stalling the parse.  Likewise an integer power ``c^k`` may have at most
:data:`MAX_POWER_DIGITS` digits, the longest integer literal the
interpreter converts; a larger one is rejected from the bit length of
``c`` before the power is built.  The same limit bounds the power of a
parenthesised or ``sqrt()`` constant, such as ``(1/2)^k`` or
``sqrt(3)^k``; see :func:`_check_constant_power`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import FormatError
from .polyring import Poly, _add_products, _add_terms
from .exactfield import ONE, Scalar

MAX_RADICAND = 10**12
MAX_POWER_DIGITS = 4300
_POWER_LIMIT = 10**MAX_POWER_DIGITS


def default_names(nvars: int) -> list[str]:
    return ["x%d" % (i + 1) for i in range(nvars)]


# -- formatting --------------------------------------------------------------


def _digits_below(bits: int) -> int:
    """A lower bound on the decimal digits of an integer of at least
    ``bits`` bits, without floats: 0.30102999566 < log10(2)."""
    return (bits - 1) * 30102999566 // 10**11 + 1


def format_fraction(value: Fraction) -> str:
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return "%d/%d" % (value.numerator, value.denominator)
    except ValueError:
        # str() refuses an int past the interpreter's limit (4300 digits by
        # default); count its digits from below
        big = max(abs(value.numerator), value.denominator)
        digits = _digits_below(big.bit_length())
        while big >= 10 ** digits:
            digits += 1
        raise FormatError("integer of %d digits is longer than the interpreter "
                          "converts" % digits)


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

_TOKEN = re.compile(r"\s*(?:(\d+|[A-Za-z_][A-Za-z0-9_]*|[-+*/^()])|\S)")


def _tokenize(text: str) -> list[str]:
    """Token strings: an int literal, a name or a one-character operator."""
    tokens = _TOKEN.findall(text)
    if "" in tokens:
        # the \S branch matched a character that starts no token
        bad = next(m for m in _TOKEN.finditer(text) if m.group(1) is None)
        raise FormatError("unexpected character %r in %r" % (text[bad.end() - 1], text))
    return tokens


def _int_literal(digits: str) -> int:
    # int() refuses a literal longer than the interpreter's limit for
    # string conversion (4300 digits by default) with ValueError
    try:
        return int(digits)
    except ValueError:
        raise FormatError("integer literal of %d digits is longer than the "
                          "interpreter converts" % len(digits))


def _bounded_power(base: int, exponent: int) -> int | None:
    """``base ** exponent`` for ``base >= 0``, or None past
    :data:`MAX_POWER_DIGITS` digits."""
    # base ** exponent has at least (bit_length - 1) * exponent + 1 bits, and
    # for base >= 2 at most twice that: a power that passes the bound on its
    # bits is small enough to build and compare
    if base < 2 or (_digits_below((base.bit_length() - 1) * exponent + 1)
                    <= MAX_POWER_DIGITS):
        value = base ** exponent
        if value < _POWER_LIMIT:
            return value
    return None


def _int_power(base: int, exponent: int) -> int:
    """``base ** exponent`` for ``base >= 0``, or FormatError past
    :data:`MAX_POWER_DIGITS` digits."""
    value = _bounded_power(base, exponent)
    if value is None:
        raise FormatError("integer power %d^%d has more than %d digits"
                          % (base, exponent, MAX_POWER_DIGITS))
    return value


def _check_constant_power(base: Poly, exponent: int):
    """FormatError unless a constant ``base`` to ``exponent`` keeps within
    :data:`MAX_POWER_DIGITS` digits, decided before the power is built.

    Write the constant as (a + b*sqrt(d))/m with integers a, b and m > 0.
    Every integer of its power is at most M**exponent, M = max(|a| + |b|*d, m),
    and M**exponent must fit.  For a rational base, a/m in lowest terms, that
    is exact: the power is a**exponent / m**exponent.  With an irrational
    part it is a bound, and the message says so.
    """
    c = base.constant_value()
    m = math.lcm(c.rat.denominator, c.irr.denominator)
    a = c.rat.numerator * (m // c.rat.denominator)
    b = c.irr.numerator * (m // c.irr.denominator)
    if _bounded_power(max(abs(a) + abs(b) * c.rad, m), exponent) is None:
        raise FormatError("power (%s)^%d %s more than %d digits"
                          % (format_scalar(c), exponent,
                             "may have" if b else "has", MAX_POWER_DIGITS))


class _Parser:
    """Recursive-descent parser over + - * / ^ ( ) int name, producing a Poly.

    Terms are built as they are read; see the module docstring.
    """

    def __init__(self, tokens, nvars, index_of):
        # the None sentinel ends the input; every rule that takes it raises
        self.tokens = tokens + [None]
        self.pos = 0
        self.nvars = nvars
        self.index_of = index_of

    def take(self):
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def expect(self, op):
        if self.take() != op:
            raise FormatError("expected %r" % op)

    def parse(self) -> Poly:
        result = self.sum_expr()
        if self.pos != len(self.tokens) - 1:
            raise FormatError("trailing input after polynomial")
        return result

    def sum_expr(self) -> Poly:
        acc: dict[tuple[int, ...], Scalar] = {}
        negate = False
        if self.tokens[self.pos] in ("+", "-"):
            negate = self.take() == "-"
        while True:
            self.add_term(acc, negate)
            if self.tokens[self.pos] not in ("+", "-"):
                return Poly._new(self.nvars, acc)
            negate = self.take() == "-"

    def add_term(self, acc, negate):
        """Parse one product and add it, negated if asked, into ``acc``."""
        coeff, exps, rest = self.product_expr()
        if not coeff:
            return
        key, value = tuple(exps), Scalar._coerce(-coeff if negate else coeff)
        if rest is None:
            _add_terms(acc, ((key, value),))
        else:
            _add_products(acc, {key: value}, rest.terms)

    def product_expr(self):
        """One product as (rational coefficient, exponent list, rest): ``rest``
        is the product of the factors :meth:`atom` gives as a Poly, or None."""
        coeff = 1
        exps = [0] * self.nvars
        rest = None
        divide = False
        while True:
            while self.tokens[self.pos] == "-":
                self.take()
                coeff = -coeff
            base, exponent = self.power_expr()
            if isinstance(base, Poly):
                if exponent > 1 and base.degree() <= 0:
                    _check_constant_power(base, exponent)
                factor = base ** exponent
                if divide:
                    try:
                        divisor = factor.constant_value()
                    except ValueError:
                        raise FormatError("can only divide by a constant")
                    factor = Poly.constant(self.nvars, divisor.inverse())
                rest = factor if rest is None else rest * factor
            elif isinstance(base, str):
                if divide and exponent:
                    raise FormatError("can only divide by a constant")
                exps[self.index_of[base]] += exponent
            elif divide:
                coeff = Fraction(coeff) / base
            else:
                coeff *= base
            if self.tokens[self.pos] not in ("*", "/"):
                return coeff, exps, rest
            divide = self.take() == "/"

    def power_expr(self):
        """One factor as (base, exponent), the base as :meth:`atom` gives it;
        an int base comes with the power taken and exponent 1."""
        base = self.atom()
        if self.tokens[self.pos] != "^":
            return base, 1
        self.take()
        token = self.take()
        if token is None or not token[0].isdigit():
            raise FormatError("exponent must be an integer")
        if isinstance(base, int):
            return _int_power(base, _int_literal(token)), 1
        return base, _int_literal(token)

    def atom(self):
        """An int for a literal, the name for a variable, else a Poly."""
        token = self.take()
        if token is None:
            raise FormatError("unexpected end of input")
        if token[0].isdigit():
            return _int_literal(token)
        if token == "(":
            inner = self.sum_expr()
            self.expect(")")
            return inner
        if token == "sqrt":
            self.expect("(")
            inner = self.take()
            if inner is None or not inner[0].isdigit():
                raise FormatError("sqrt() takes an integer radicand")
            self.expect(")")
            try:
                radicand = _int_literal(inner)
                if radicand > MAX_RADICAND:
                    raise FormatError("sqrt() radicand %s exceeds the limit %d"
                                      % (inner, MAX_RADICAND))
                root = Scalar(0, 1, radicand)
            except ValueError as exc:
                raise FormatError(str(exc))
            return Poly.constant(self.nvars, root)
        if token[0] == "_" or token[0].isalpha():
            if token not in self.index_of:
                raise FormatError("unknown variable %r" % token)
            return token
        raise FormatError("unexpected token %r" % (token,))


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


def parse_monomial(text: str, names: list[str]) -> tuple[int, ...]:
    """The exponent tuple of a monomial with coefficient one, such as
    ``x1^2*x3``; anything else raises :class:`FormatError`."""
    terms = list(parse_poly(text, names).terms.items())
    if len(terms) != 1 or terms[0][1] != ONE:
        raise FormatError("not a monomial: %r" % text)
    return terms[0][0]


def parse_scalar(text: str) -> Scalar:
    value = parse_poly(text, [])
    return value.constant_value()


def format_scalar_matrix(rows: list[list[Scalar]]) -> list[list[str]]:
    return [[format_scalar(v) for v in row] for row in rows]


def parse_scalar_matrix(rows: list[list[str]]) -> list[list[Scalar]]:
    return [[parse_scalar(cell) for cell in row] for row in rows]
