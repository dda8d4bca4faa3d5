"""Canonical text rendering and parsing for scalars and polynomials.

The renderer is deterministic: terms appear in descending graded lex order,
coefficients render as ``p/q`` or ``p/q+r/s*sqrt(d)``, and the same string
always comes back for the same value.  The parser accepts the rendered
grammar plus ordinary whitespace, parenthesised subexpressions and ``^``
powers, and is shared by every file format in the package: what the CLI
and the catalog emit, they can read back.

A term is built where it is read.  The product rule reads every factor in
one loop over the tokens: any run of unary ``-``, a base (a variable, an
integer literal, or a parenthesised sum or ``sqrt(int)`` group) and an
optional ``^int``.  A variable adds its packed key (see
:mod:`linnij.polyring`), times its exponent, to the term's key, and an
integer goes into its rational coefficient, with no call per factor; after
``/`` a factor must be constant.  A term whose degree does not fit the
parse's field width starts the parse again at the next width of the
ladder.  Only a group is a
:class:`~linnij.polyring.Poly` of its own; the ring's product kernel adds
its product with the term's coefficient and monomial straight into the
sum, which gathers its terms in one dict through the ring's term kernel.
A sum leaves each ``-`` to the product after it, so a minus flips the sign
of its term wherever it stands and ``^`` binds tighter than it everywhere:
``x1*-x2^2`` is ``-(x1*x2^2)``.

Most text the package reads back is a flat canonical sum, as
:func:`format_poly` writes it for ``int`` coefficients: an optional ``-``,
then terms ``int``, ``int*monomial`` or ``monomial`` joined by `` + `` and
`` - ``, with no ``/``, bracket or ``sqrt``.  The flat reader takes such a
text with one full match of that grammar, one ``str.split`` at its
spaces and one loop over the terms; the fast path of
:func:`~linnij.reconstruct.parse_system` reads every sum of a listing
with it, so the package has one term reader.  The loop reads each
distinct monomial text to its key once, through a dict that belongs to
the name table: ``parse_system`` keeps one per listing, where a few
hundred monomial texts recur across 90 equations.  It builds the very polynomial the parser would, at the
narrowest width.  Any other text, and any term it cannot read the
parser's way (a name not in the table, a degree past the narrowest width,
a literal longer than ``int()`` reads), goes to the parser, which is the
only source of :class:`~linnij.errors.FormatError`.  The text alone
decides which path reads it.  The printer likewise takes a dict of
monomial texts by key, which a listing shares across its equations.

Variables are positional; display names live only here.  The default name
for variable ``i`` (0-based) is ``x{i+1}``.

A ``sqrt(d)`` radicand may be at most :data:`MAX_RADICAND`: checking that
it is square-free takes trial division up to its cube root, so a larger
one is rejected with :class:`~linnij.errors.FormatError` instead of
stalling the parse.  Each radicand is checked once per parse, however
often its ``sqrt`` occurs.  Likewise an integer power ``c^k`` may have at
most :data:`MAX_POWER_DIGITS` digits, the longest integer literal the
interpreter converts; a larger one is rejected from the bit length of
``c`` before the power is built.  The same limit bounds the power of a
parenthesised or ``sqrt()`` constant, such as ``(1/2)^k`` or
``sqrt(3)^k``; see :func:`_check_constant_power`.  Parentheses may nest at
most :data:`MAX_NESTING` deep: the parser recurses once per open
parenthesis, so deeper input is refused with a ``FormatError`` before it
can exhaust the interpreter's stack.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import FormatError
from .polyring import (
    _MIN_WIDTH, Coefficient, Poly, _add_products, _add_terms, _fields, _reciprocal,
    _repack, _units)
from .exactfield import Scalar, _narrow, _size, parts

MAX_RADICAND = 10**12
MAX_POWER_DIGITS = 4300
MAX_NESTING = 100
_POWER_LIMIT = 10**MAX_POWER_DIGITS


def default_names(nvars: int) -> list[str]:
    return ["x%d" % (i + 1) for i in range(nvars)]


# -- formatting --------------------------------------------------------------


def _digits_below(bits: int) -> int:
    """A lower bound on the decimal digits of an integer of at least
    ``bits`` bits, without floats: 0.30102999566 < log10(2)."""
    return (bits - 1) * 30102999566 // 10**11 + 1


def format_fraction(value: int | Fraction) -> str:
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


def format_scalar(value: Coefficient) -> str:
    rat, irr, rad = parts(value)
    if not irr:
        return format_fraction(rat)
    irr_part = "%s*sqrt(%d)" % (format_fraction(abs(irr)), rad)
    if irr < 0:
        irr_part = "-" + irr_part
    if rat == 0:
        return irr_part
    if irr < 0:
        return format_fraction(rat) + irr_part
    return format_fraction(rat) + "+" + irr_part


def _monomial_text(fields, names: list[str]) -> str:
    """The factors of a monomial from its nonzero ``(index, exponent)``
    pairs, such as ``x1^2*x3``; empty for the monomial 1."""
    return "*".join(names[i] if e == 1 else "%s^%d" % (names[i], e) for i, e in fields)


def format_poly(p: Poly, names: list[str] | None = None) -> str:
    if names is None:
        names = default_names(p.nvars)
    elif len(names) != p.nvars:
        raise FormatError("expected %d variable names" % p.nvars)
    return _format_terms(p, names, {})


def _format_terms(p: Poly, names: list[str], texts: dict) -> str:
    """:func:`format_poly` over names already checked, taking each
    monomial's text from ``texts``, a dict from width to ``{key: text}``
    that a caller printing many polynomials over one list of names
    shares."""
    if p.is_zero():
        return "0"
    pieces: list[str] = []
    nvars, width, terms = p.nvars, p.width, p.packed
    memo = texts.get(width)
    if memo is None:
        memo = texts[width] = {}
    for key in sorted(terms, reverse=True):
        coeff = terms[key]
        mono = memo.get(key)
        if mono is None:
            mono = memo[key] = _monomial_text(_fields(key, nvars, width), names)
        # each coefficient as the ring holds it: an int, a Fraction, or a
        # Scalar with an irrational part, bracketed when it has both parts;
        # an unbracketed one has the sign of its one part, lone
        kind = type(coeff)
        rat, lone = parts(coeff)[:2] if kind is Scalar else (0, coeff)
        if rat:
            atom = "(%s)" % format_scalar(coeff)
            if mono:
                atom += "*" + mono
            negative = False
        else:
            negative = lone < 0
            mag = -coeff if negative else coeff
            # a rational magnitude prints as format_scalar would print it
            show = format_scalar if kind is Scalar else format_fraction
            if not mono:
                atom = show(mag)
            elif mag == 1:
                atom = mono
            else:
                atom = show(mag) + "*" + mono
        if not pieces:
            pieces.append("-" + atom if negative else atom)
        else:
            pieces.append((" - " if negative else " + ") + atom)
    return "".join(pieces)


def format_monomial(exps, names: list[str]) -> str:
    """The monomial with exponents ``exps`` and coefficient one, such as
    ``x1^2*x3``; the inverse of :func:`parse_monomial`."""
    return _monomial_text(((i, e) for i, e in enumerate(exps) if e), names) or "1"


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
    Every integer of its power is at most M**exponent, M = max(|a| + |b|*d, m)
    (:func:`~linnij.exactfield._size`), and M**exponent must fit.  For a
    rational base, a/m in lowest terms, that is exact: the power is
    a**exponent / m**exponent.  With an irrational part it is a bound, and
    the message says so.
    """
    c = base.constant_value()
    if _bounded_power(_size(c), exponent) is None:
        raise FormatError("power (%s)^%d %s more than %d digits"
                          % (format_scalar(c), exponent,
                             "may have" if type(c) is Scalar else "has",
                             MAX_POWER_DIGITS))


class _Parser:
    """Recursive-descent parser over + - * / ^ ( ) int name, producing a Poly.

    Terms are built as they are read; see the module docstring.
    """

    def __init__(self, tokens, nvars, index_of, width=_MIN_WIDTH, roots=None):
        # the None sentinel ends the input; every rule that takes it raises
        self.tokens = tokens + [None]
        # sqrt(d) by radicand, so each radicand is checked square-free once
        self.roots = {} if roots is None else roots
        self.pos = 0
        self.nvars = nvars
        self.index_of = index_of
        self.depth = 0  # open parentheses
        # every term is packed at this width; a degree past it is _Wider
        self.width = width
        self.units = _units(nvars, width)

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
        """Products joined by ``+`` and ``-``; a ``-`` is left to
        :meth:`product_expr`, which reads it as a unary minus."""
        tokens = self.tokens
        acc: dict = {}
        if tokens[self.pos] == "+":
            self.pos += 1
        nvars, width = self.nvars, self.width
        while True:
            coeff, key, rest = self.product_expr()
            if coeff:
                value = _narrow(coeff)
                if rest is None:
                    _add_terms(acc, ((key, value),))
                elif rest.packed:
                    if (rest.width > width
                            or (key >> width * nvars) + rest.degree() >> width):
                        raise _Wider
                    _add_products(acc, {key: value},
                                  _repack(rest.packed, nvars, rest.width, width))
            op = tokens[self.pos]
            if op == "+":
                self.pos += 1
            elif op != "-":
                return Poly._new(nvars, width, acc)

    def product_expr(self):
        """One product as (rational coefficient, key, rest): the key packs
        the variable factors at the parser's width, and ``rest`` is the
        product of the factors :meth:`group` gives, or None.

        Each factor is any run of unary ``-``, a base (a variable, an
        integer literal or a group), an optional ``^int``, and is folded in
        as it is read: errors of the base come before those of its exponent,
        and both before those of folding it in."""
        tokens, index_of, units = self.tokens, self.index_of, self.units
        coeff = 1
        key = 0
        rest = None
        divide = False
        pos = self.pos
        while True:
            token = tokens[pos]
            while token == "-":
                coeff = -coeff
                pos += 1
                token = tokens[pos]
            i = index_of.get(token)
            if i is not None:
                pos += 1
            elif token is not None and token[0].isdigit():
                base = _int_literal(token)
                pos += 1
            else:
                self.pos = pos
                base = self.group()
                pos = self.pos
            if tokens[pos] == "^":
                token = tokens[pos + 1]
                if token is None or not token[0].isdigit():
                    raise FormatError("exponent must be an integer")
                exponent = _int_literal(token)
                pos += 2
                if i is None and type(base) is int:
                    base = _int_power(base, exponent)
            else:
                exponent = 1
            if i is not None:
                if divide and exponent:
                    raise FormatError("can only divide by a constant")
                key += exponent * units[i]
            elif type(base) is int:
                coeff = Fraction(coeff) / base if divide else coeff * base
            else:
                if exponent > 1 and base.degree() <= 0:
                    _check_constant_power(base, exponent)
                factor = base ** exponent
                if divide:
                    try:
                        divisor = factor.constant_value()
                    except ValueError:
                        raise FormatError("can only divide by a constant")
                    factor = Poly.constant(self.nvars, _reciprocal(divisor))
                rest = factor if rest is None else rest * factor
            op = tokens[pos]
            if op != "*" and op != "/":
                # the degree field reaches 2**width exactly when the degree
                # does not fit, and only then can a field have carried
                if key >> self.width * (self.nvars + 1):
                    raise _Wider
                self.pos = pos
                return coeff, key, rest
            divide = op == "/"
            pos += 1

    def group(self) -> Poly:
        """A parenthesised sum or ``sqrt(int)``; any other token that
        :meth:`product_expr` cannot read as a base is an error here."""
        token = self.take()
        if token == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise FormatError("parentheses nested deeper than %d" % MAX_NESTING)
            inner = self.sum_expr()
            self.expect(")")
            self.depth -= 1
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
                root = self.roots.get(radicand)
                if root is None:
                    root = self.roots[radicand] = Scalar(0, 1, radicand)
            except ValueError as exc:
                raise FormatError(str(exc))
            return Poly.constant(self.nvars, root)
        if token is None:
            raise FormatError("unexpected end of input")
        if token[0] == "_" or token[0].isalpha():
            raise FormatError("unknown variable %r" % token)
        raise FormatError("unexpected token %r" % (token,))


class _Wider(Exception):
    """A term's degree does not fit the parser's width."""


def _name_table(names) -> dict[str, int]:
    """Each variable name's index; FormatError if a name repeats.  The
    token ``sqrt`` always reads as the function, so it is left out."""
    index_of = {name: i for i, name in enumerate(names)}
    if len(index_of) != len(names):
        raise FormatError("duplicate variable names")
    index_of.pop("sqrt", None)
    return index_of


# the flat canonical sum that format_poly writes for int coefficients: an
# optional "-", then terms "int", "int*monomial" or "monomial" joined by
# " + " and " - "; a monomial is names, each with an optional "^int",
# joined by "*"
_FACTOR = r"[A-Za-z_][A-Za-z0-9_]*(?:\^[0-9]+)?"
_FLAT_TERM = r"(?:[0-9]+|%s)(?:\*%s)*" % (_FACTOR, _FACTOR)
_FLAT_SUM = re.compile(r"-?%s(?: [-+] %s)*" % (_FLAT_TERM, _FLAT_TERM))


def _monomial_key(text: str, nvars: int, index_of: dict[str, int],
                  keys: dict[str, int]) -> int | None:
    """The key at :data:`_MIN_WIDTH` of a flat monomial's text, kept in
    ``keys``, or None when a name is not in the table, an exponent is
    longer than ``int()`` reads or the degree does not fit the width.  A
    factor is a monomial of its own, so each factor's key is kept there
    too, and a monomial of known factors costs a sum."""
    top = _MIN_WIDTH * (nvars + 1)
    key = 0
    for factor in text.split("*"):
        part = keys.get(factor)
        if part is None:
            name, _, digits = factor.partition("^")
            i = index_of.get(name)
            if i is None:
                return None
            try:
                part = (int(digits) if digits else 1) * _units(nvars, _MIN_WIDTH)[i]
            except ValueError:
                return None
            if part >> top:
                return None
            keys[factor] = part
        key += part
    if key >> top:
        return None
    keys[text] = key
    return key


def _read_flat(text: str, nvars: int, index_of: dict[str, int],
               keys: dict[str, int]) -> Poly | None:
    """The polynomial of a flat canonical sum (:data:`_FLAT_SUM`), as the
    parser would build it, or None when the text is not one or a term is
    one the parser would read otherwise: a name it does not know, a degree
    past :data:`_MIN_WIDTH`, a literal longer than ``int()`` reads.

    ``keys`` maps each monomial text read so far to its key; it belongs to
    the name table, and a caller reading many sums over one table passes
    the same dict each time."""
    if _FLAT_SUM.fullmatch(text) is None:
        return None
    # split at its spaces: the terms stand at the even indices, each after
    # its sign but the first, which may start with "-"
    tokens = text.split(" ")
    acc: dict[int, int] = {}
    for i in range(0, len(tokens), 2):
        token = tokens[i]
        if i:
            negative = tokens[i - 1] == "-"
        else:
            negative = token[0] == "-"
            if negative:
                token = token[1:]
        if token[0].isdigit():
            digits, _, mono = token.partition("*")
            try:
                coeff = int(digits)
            except ValueError:
                return None
            if not coeff:
                continue
        else:
            coeff, mono = 1, token
        if mono:
            key = keys.get(mono)
            if key is None:
                key = _monomial_key(mono, nvars, index_of, keys)
                if key is None:
                    return None
        else:
            key = 0
        if negative:
            coeff = -coeff
        # the parser's sum: a repeated monomial adds, and a sum that
        # cancels is dropped
        cur = acc.get(key)
        if cur is None:
            acc[key] = coeff
        elif cur + coeff:
            acc[key] = cur + coeff
        else:
            del acc[key]
    return Poly._new(nvars, _MIN_WIDTH, acc)


def _parse_poly(text: str, nvars: int, index_of: dict[str, int],
                keys: dict[str, int] | None = None) -> Poly:
    """:func:`parse_poly` over a name table from :func:`_name_table`, which
    a caller parsing many polynomials over one ring builds once, along with
    the monomial keys of :func:`_read_flat`: the flat reader when it reads
    the text, the parser otherwise."""
    flat = _read_flat(text, nvars, index_of, {} if keys is None else keys)
    if flat is not None:
        return flat
    return _descend(text, nvars, index_of)


def _descend(text: str, nvars: int, index_of: dict[str, int]) -> Poly:
    """The recursive-descent parse of ``text``, starting at the narrowest
    width and widening as a term needs; the source of every
    :class:`FormatError`."""
    tokens = _tokenize(text)
    width = _MIN_WIDTH
    roots: dict = {}
    try:
        while True:
            try:
                return _Parser(tokens, nvars, index_of, width, roots).parse()
            except _Wider:
                # the same tokens again, every term at the next width
                width *= 2
    except ZeroDivisionError:
        raise FormatError("division by zero in %r" % text)


def parse_poly(text: str, names: list[str]) -> Poly:
    """Parse the canonical polynomial grammar over the given variable names."""
    return _parse_poly(text, len(names), _name_table(names))


def parse_monomial(text: str, names: list[str]) -> tuple[int, ...]:
    """The exponent tuple of a monomial with coefficient one, such as
    ``x1^2*x3``; anything else raises :class:`FormatError`."""
    return _parse_monomial(text, len(names), _name_table(names))


def _parse_monomial(text: str, nvars: int, index_of: dict[str, int]) -> tuple[int, ...]:
    """:func:`parse_monomial` over a name table from :func:`_name_table`."""
    terms = _parse_poly(text, nvars, index_of).sorted_terms()
    if len(terms) != 1 or terms[0][1] != 1:
        raise FormatError("not a monomial: %r" % text)
    return terms[0][0]


def parse_scalar(text: str) -> Coefficient:
    value = parse_poly(text, [])
    return value.constant_value()


def format_scalar_matrix(rows: list[list[Coefficient]]) -> list[list[str]]:
    return [[format_scalar(v) for v in row] for row in rows]


def parse_scalar_matrix(rows: list[list[str]]) -> list[list[Coefficient]]:
    return [[parse_scalar(cell) for cell in row] for row in rows]
