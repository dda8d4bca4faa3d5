import math
import random
from fractions import Fraction

import pytest

from linnij.errors import FormatError
from linnij.exactfield import Scalar
from linnij.polyring import Poly, _narrow
from linnij.reconstruct import CASE_TAGS, generate_linearity_system, param_sigmas
from tuple_kernel import add_products, add_terms
from linnij.textio import (
    MAX_NESTING,
    MAX_RADICAND,
    _check_constant_power,
    _descend,
    _int_literal,
    _int_power,
    _name_table,
    _Parser,
    _parse_poly,
    _read_flat,
    _tokenize,
    default_names,
    format_poly,
    format_scalar,
    format_scalar_matrix,
    parse_monomial,
    parse_poly,
    parse_scalar,
    parse_scalar_matrix,
)


def random_scalar(rng, rad):
    rat = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
    if rad == 0:
        return Scalar(rat)
    return Scalar(rat, Fraction(rng.randint(-6, 6), rng.randint(1, 5)), rad)


def random_poly(rng, nvars, rad):
    p = Poly.zero(nvars)
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 3) for _ in range(nvars))
        term = Poly.constant(nvars, random_scalar(rng, rad))
        for i, e in enumerate(exps):
            term = term * Poly.variable(nvars, i) ** e
        p = p + term
    return p


def test_poly_round_trip_rational():
    rng = random.Random(31)
    names = default_names(3)
    for _ in range(150):
        p = random_poly(rng, 3, 0)
        assert parse_poly(format_poly(p, names), names) == p


def test_poly_round_trip_with_radical():
    rng = random.Random(32)
    names = default_names(2)
    for _ in range(150):
        p = random_poly(rng, 2, 3)
        assert parse_poly(format_poly(p, names), names) == p


def test_specific_renderings():
    names = default_names(2)
    cases = [
        ("0", "0"),
        ("x1 - x2", "x1 - x2"),
        ("-x1 - 1", "-x1 - 1"),
        ("2*x1^2*x2", "2*x1^2*x2"),
        ("x2^2 + (-1/9+2/3*sqrt(3))*x1", "x2^2 + (-1/9+2/3*sqrt(3))*x1"),
        ("1*sqrt(3)*x1", "1*sqrt(3)*x1"),
        ("x1*x2 - 1/2", "x1*x2 - 1/2"),
    ]
    for text, expected in cases:
        assert format_poly(parse_poly(text, names), names) == expected


def test_rendering_orders_terms_graded():
    names = default_names(2)
    p = parse_poly("1 + x1 + x2^3", names)
    assert format_poly(p, names) == "x2^3 + x1 + 1"


def test_mixed_coefficient_is_parenthesized():
    names = default_names(1)
    p = parse_poly("(2 - sqrt(5))*x1", names)
    text = format_poly(p, names)
    assert text == "(2-1*sqrt(5))*x1"
    assert parse_poly(text, names) == p


def test_parse_accepts_whitespace_and_parens():
    names = default_names(2)
    a = parse_poly(" ( x1 + x2 ) ^ 2 ", names)
    b = parse_poly("x1^2 + 2*x1*x2 + x2^2", names)
    assert a == b


def test_parse_division_by_constant():
    names = default_names(1)
    assert parse_poly("x1/3", names) == parse_poly("1/3*x1", names)


PARSE_ERRORS = [
    # (input, message)
    ("x3", "unknown variable 'x3'"),
    ("foo", "unknown variable 'foo'"),
    ("x1 +", "unexpected end of input"),
    ("", "unexpected end of input"),
    ("x1**2", "unexpected token '*'"),
    ("x1 + )", "unexpected token ')'"),
    ("x1^", "exponent must be an integer"),
    ("x1^x2", "exponent must be an integer"),
    ("x1^-1", "exponent must be an integer"),
    ("(x1", "expected ')'"),
    ("sqrt(3", "expected ')'"),
    ("sqrt", "expected '('"),
    ("x1)", "trailing input after polynomial"),
    ("x1 x2", "trailing input after polynomial"),
    ("1/(0)", "division by zero in '1/(0)'"),
    ("3/0", "division by zero in '3/0'"),
    ("x1/x2", "can only divide by a constant"),
    ("x1/(x2 + 1)", "can only divide by a constant"),
    ("sqrt(12)", "radicand 12 is not square-free"),
    ("sqrt(0)", "irrational part requires a nonzero radicand"),
    ("sqrt(x1)", "sqrt() takes an integer radicand"),
    ("sqrt()", "sqrt() takes an integer radicand"),
    ("sqrt(1000000000000000000000000000057)",
     "sqrt() radicand 1000000000000000000000000000057 exceeds the limit "
     "1000000000000"),
    ("x1 ? 2", "unexpected character '?' in 'x1 ? 2'"),
    ("x1?", "unexpected character '?' in 'x1?'"),
    ("1" * 5000,
     "integer literal of 5000 digits is longer than the interpreter converts"),
    ("x1^" + "9" * 5000,
     "integer literal of 5000 digits is longer than the interpreter converts"),
    ("3^1000000", "integer power 3^1000000 has more than 4300 digits"),
    ("x1/10^4300", "integer power 10^4300 has more than 4300 digits"),
    ("(3)^300000*x1", "power (3)^300000 has more than 4300 digits"),
    ("x1*(-3)^3000000", "power (-3)^3000000 has more than 4300 digits"),
    ("(1/2)^20000", "power (1/2)^20000 has more than 4300 digits"),
    ("sqrt(3)^100000*x1", "power (1*sqrt(3))^100000 may have more than 4300 digits"),
    ("(1 + sqrt(3))^100000",
     "power (1+1*sqrt(3))^100000 may have more than 4300 digits"),
    ("(" * 101 + "x1" + ")" * 101, "parentheses nested deeper than 100"),
    ("x1*" + "(" * 5000 + "x2" + ")" * 5000, "parentheses nested deeper than 100"),
    ("(" * 5000, "parentheses nested deeper than 100"),
]


def test_parse_errors():
    names = default_names(2)
    for text, message in PARSE_ERRORS:
        with pytest.raises(FormatError) as info:
            parse_poly(text, names)
        assert str(info.value) == message


def test_nesting_limit_is_exact():
    assert MAX_NESTING == 100
    names = default_names(2)
    x1 = Poly.variable(2, 0)
    deepest = "(" * 100 + "x1" + ")" * 100
    assert parse_poly(deepest, names) == x1
    # the depth counts open parentheses, not parentheses read
    assert parse_poly(" + ".join([deepest] * 3), names) == x1 * 3
    assert parse_poly("(" * 99 + "x2*(x1)" + ")" * 99, names) == x1 * Poly.variable(2, 1)


def test_integer_power_limit_is_exact():
    # the largest power with 4300 digits parses, the next one is refused,
    # for bases whose bit-length bound is tight or loose
    for base in (2, 3, 7, 10, 1023, 1024, 99991):
        k = int(4300 / math.log10(base))
        while base ** k >= 10**4300:
            k -= 1
        while base ** (k + 1) < 10**4300:
            k += 1
        value = parse_poly("%d^%d" % (base, k), []).constant_value()
        assert value == Scalar(base ** k)
        with pytest.raises(FormatError) as info:
            parse_poly("%d^%d" % (base, k + 1), [])
        assert str(info.value) == ("integer power %d^%d has more than 4300 digits"
                                   % (base, k + 1))
    for base in (0, 1):
        assert parse_poly("%d^%d" % (base, 10**12), []) == parse_poly(str(base), [])


def test_constant_power_limit():
    # a rational constant's power is p^k/q^k, held to the integer limit
    # exactly; a base with an irrational part is held to a bound
    for base, text in ((3, "(3)"), (3, "(-3)"), (7, "(7/2)"), (7, "(2/7)")):
        k = int(4300 / math.log10(base))
        while base ** k >= 10**4300:
            k -= 1
        while base ** (k + 1) < 10**4300:
            k += 1
        value = parse_poly("%s^%d" % (text, k), []).constant_value()
        assert value == parse_scalar(text) ** k
        with pytest.raises(FormatError) as info:
            parse_poly("%s^%d" % (text, k + 1), [])
        assert str(info.value) == ("power %s^%d has more than 4300 digits"
                                   % (text, k + 1))
    # sqrt(3)^k and (1 + sqrt(3))^k are held to 3^k and 4^k
    assert parse_poly("sqrt(3)^9000", []) == parse_poly("3^4500", [])
    with pytest.raises(FormatError):
        parse_poly("sqrt(3)^9020", [])
    assert parse_poly("(1 + sqrt(3))^7000", []).constant_value().rat > 0
    with pytest.raises(FormatError):
        parse_poly("(1 + sqrt(3))^7200", [])
    for text, value in (("(0)", 0), ("(1)", 1), ("(-1)", 1)):
        assert parse_poly("%s^%d" % (text, 10**12), []) == Poly.constant(0, value)


def test_duplicate_names_rejected():
    with pytest.raises(FormatError) as info:
        parse_poly("x1", ["x1", "x1"])
    assert str(info.value) == "duplicate variable names"


def test_unary_minus_precedence():
    names = default_names(2)
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    # ^ binds tighter than a unary minus, wherever the minus stands
    assert parse_poly("-x1^2", names) == -(x1 ** 2)
    assert parse_poly("+-x1", names) == -x1
    assert parse_poly("x1*-x2^2", names) == -(x1 * x2 ** 2)
    assert parse_poly("x1 - -x2^2", names) == x1 + x2 ** 2
    assert parse_poly("x1/-2*x2", names) == x1 * x2 * Scalar(Fraction(-1, 2))


# -- the parser against an independent oracle -----------------------------------
#
# A random expression is built twice: as text, and as its value by Poly
# arithmetic.  Each text is tagged with the loosest grammar level it parses
# at as a whole (sum < product < power < atom), and is parenthesised where
# an operator needs a tighter one.

SUM, PRODUCT, POWER, ATOM = range(4)
ORACLE_NAMES = ["x", "y_2", "b_11"]
ROOT3 = Scalar(0, 1, 3)


def _at(level, expr, rng):
    text, value, has = expr
    if has < level:
        text = "(" + text + ")" if rng.random() < 0.8 else "( " + text + " )"
    return text, value


def _join(rng, *parts):
    return "".join(part + rng.choice(["", "", " "]) for part in parts).strip()


def _leaf(rng):
    nvars = len(ORACLE_NAMES)
    roll = rng.random()
    if roll < 0.55:
        i = rng.randrange(nvars)
        return ORACLE_NAMES[i], Poly.variable(nvars, i), ATOM
    if roll < 0.9:
        k = rng.randint(0, 12)
        return str(k), Poly.constant(nvars, k), ATOM
    return "sqrt(3)", Poly.constant(nvars, ROOT3), ATOM


def _divisor(rng):
    nvars = len(ORACLE_NAMES)
    k = rng.randint(1, 9)
    return rng.choice([
        (str(k), Poly.constant(nvars, k), ATOM),
        ("sqrt(3)", Poly.constant(nvars, ROOT3), ATOM),
        ("%d^2" % k, Poly.constant(nvars, k * k), POWER),
        ("(%d + sqrt(3))" % k, Poly.constant(nvars, ROOT3 + k), ATOM),
    ])


def random_expression(rng, depth):
    """(text, value, level) for a random expression of at most ``depth``."""
    if depth == 0 or rng.random() < 0.2:
        return _leaf(rng)
    kind = rng.choice(["sum", "difference", "product", "product", "quotient",
                       "power", "negation", "sign"])
    a = random_expression(rng, depth - 1)
    if kind in ("sum", "difference"):
        left, lv = _at(SUM, a, rng)
        right, rv = _at(PRODUCT, random_expression(rng, depth - 1), rng)
        if kind == "sum":
            return _join(rng, left, "+", right), lv + rv, SUM
        return _join(rng, left, "-", right), lv - rv, SUM
    if kind == "product":
        left, lv = _at(PRODUCT, a, rng)
        right, rv = _at(POWER, random_expression(rng, depth - 1), rng)
        return _join(rng, left, "*", right), lv * rv, PRODUCT
    if kind == "quotient":
        left, lv = _at(PRODUCT, a, rng)
        right, rv = _at(POWER, _divisor(rng), rng)
        inverse = Scalar._coerce(rv.constant_value()).inverse()
        return _join(rng, left, "/", right), lv * inverse, PRODUCT
    if kind == "power":
        base, bv = _at(ATOM, a, rng)
        e = rng.randint(0, 3)
        return _join(rng, base, "^", str(e)), bv ** e, POWER
    if kind == "negation":
        # a unary minus applies to the power after it: "-x^2" is -(x^2)
        inner, iv = _at(POWER, a, rng)
        return _join(rng, "-", inner), -iv, POWER
    # an explicit leading sign on a whole sum
    inner, iv = _at(SUM, a, rng)
    if inner.startswith("+"):
        return inner, iv, SUM
    return _join(rng, "+", inner), iv, SUM


def test_parse_matches_poly_arithmetic_oracle():
    rng = random.Random(41)
    kinds = set()
    for _ in range(600):
        text, value, _ = random_expression(rng, rng.randint(1, 5))
        kinds.update(ch for ch in text if ch in "()^-/*+")
        assert parse_poly(text, ORACLE_NAMES) == value, text
    # the seed reaches every operator of the grammar
    assert kinds == set("()^-/*+")


# -- the factor loop against the parser it replaced -----------------------------


class ReferenceParser(_Parser):
    """The parser as it was before :meth:`_Parser.product_expr` read factors
    in a loop of its own: a sum takes its own signs, and every factor of a
    product goes through :meth:`general_factor`, :meth:`power_expr` and
    :meth:`atom`."""

    def sum_expr(self) -> Poly:
        tokens = self.tokens
        acc: dict = {}
        negate = False
        if tokens[self.pos] in ("+", "-"):
            negate = self.take() == "-"
        while True:
            # each product goes into ``acc``, negated if its sign says so
            coeff, exps, rest = self.product_expr()
            if coeff:
                key, value = tuple(exps), _narrow(-coeff if negate else coeff)
                if rest is None:
                    add_terms(acc, ((key, value),))
                else:
                    add_products(acc, {key: value}, rest.terms)
            if tokens[self.pos] not in ("+", "-"):
                return Poly(self.nvars, acc)
            negate = self.take() == "-"

    def product_expr(self):
        coeff = 1
        exps = [0] * self.nvars
        rest = None
        divide = False
        while True:
            coeff, rest = self.general_factor(coeff, exps, rest, divide)
            if self.tokens[self.pos] not in ("*", "/"):
                return coeff, exps, rest
            divide = self.take() == "/"

    def general_factor(self, coeff, exps, rest, divide):
        """Read one factor, after any unary minus, through
        :meth:`power_expr` into the product so far; ``divide`` when it
        follows ``/``.  Returns the new coefficient and rest."""
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
                factor = Poly.constant(self.nvars, Scalar._coerce(divisor).inverse())
            rest = factor if rest is None else rest * factor
        elif isinstance(base, str):
            if divide and exponent:
                raise FormatError("can only divide by a constant")
            exps[self.index_of[base]] += exponent
        elif divide:
            coeff = Fraction(coeff) / base
        else:
            coeff *= base
        return coeff, rest

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
                root = Scalar(0, 1, radicand)
            except ValueError as exc:
                raise FormatError(str(exc))
            return Poly.constant(self.nvars, root)
        if token[0] == "_" or token[0].isalpha():
            if token not in self.index_of:
                raise FormatError("unknown variable %r" % token)
            return token
        raise FormatError("unexpected token %r" % (token,))


def reference_parse(text, names):
    try:
        parser = ReferenceParser(_tokenize(text), len(names), _name_table(names))
        return parser.parse()
    except ZeroDivisionError:
        raise FormatError("division by zero in %r" % text)


def outcome(parse, text, names):
    """The polynomial, or the type and message of the error raised."""
    try:
        return parse(text, names)
    except Exception as exc:
        return type(exc), str(exc)


def test_flat_factor_loop_matches_the_reference_on_the_listings():
    count = 0
    for tag in CASE_TAGS:
        system = generate_linearity_system(param_sigmas(tag))
        names = list(system.names)
        for line in system.to_text().splitlines():
            if line.startswith("#"):
                continue
            text = line.partition(" :: ")[2].rpartition(" = 0")[0]
            assert parse_poly(text, names) == reference_parse(text, names), line
            count += 1
    assert count == 9 * 90


FACTOR_EDGES = [
    # inputs where the flat loop hands a factor on, or stops, mid-product
    "x1^0*x2", "0*x1 + x2", "2^3*x1^2", "x1*2^2", "x1/2*x2", "x1*x2/3",
    "-2*x1*-x2", "x1^2^2", "2 3", "x1 ^ 2*x2", "x1*", "2*", "x1*/2",
    "x1^sqrt(2)", "x1^(2)", "x1*(x2)^2*3", "3*sqrt(3)*x1^2", "x1/0",
    "x1^00*007*x2^01", "x1*x2*x1*x2^3", "1/2/3*x1", "x1*-(x2 + 1)",
    # inputs whose checks one factor loop makes in a new order: base, then
    # exponent, then dividing or folding it in
    "x1/x2^0", "x1/-2", "-x1/2^2", "x1/ -x2", "x1/y^2", "x1/(x2)^0", "--x1",
    "-+x1", "x1*2^-1", "2/0", "1" * 5000 + "^x",
    # signs a sum leaves to the product's unary minus
    "-", "x1 -", "x1 - -x2", "x1 - +x2", "+ -x1", "-(x1 - x2)^2",
]


def test_flat_factor_loop_matches_the_reference_on_expressions_and_errors():
    rng = random.Random(41)
    for _ in range(600):
        text, _, _ = random_expression(rng, rng.randint(1, 5))
        assert parse_poly(text, ORACLE_NAMES) == reference_parse(text, ORACLE_NAMES), text
    names = default_names(2)
    for text in [text for text, _ in PARSE_ERRORS] + FACTOR_EDGES:
        assert outcome(parse_poly, text, names) == outcome(reference_parse, text, names)
    # a variable named sqrt never reads as one
    for text in ("sqrt", "sqrt*x1", "x1*sqrt", "sqrt(2)*x1", "x1*sqrt(2)^2"):
        expected = outcome(reference_parse, text, ["sqrt", "x1"])
        assert outcome(parse_poly, text, ["sqrt", "x1"]) == expected


# the eight listings of the benchmark (tag "2" lists the same system as 2.1)
LISTING_CASES = ("1.1", "1.2", "1.3", "2.1", "2.2", "3", "4.1", "4.2")
# "２" is a digit to the regex \d and to int(), though not to [0-9]
MUTATION_CHARS = list("+-*/^() 0123456789abcdefghijklmnopqrstuvwxyz_") + ["２"]


def listing_bodies():
    """(names, bodies) of each listing: the polynomial text of every
    equation line."""
    for tag in LISTING_CASES:
        system = generate_linearity_system(param_sigmas(tag))
        yield list(system.names), [
            line.partition(" :: ")[2].rpartition(" = 0")[0]
            for line in system.to_text().splitlines() if not line.startswith("#")]


def shape(p):
    """Everything that makes two parses the same: the ring, the width, the
    terms in their order and the type of each coefficient."""
    return p.nvars, p.width, [(key, type(c), c) for key, c in p.packed.items()]


def reader_agrees(text, names, keys):
    """Check that the flat reader returns the parser's polynomial or None,
    and that the public entry gives the parser's polynomial or error
    message; True when the reader read the text."""
    index_of = _name_table(names)
    flat = _read_flat(text, len(names), index_of, keys)
    try:
        expected = shape(_descend(text, len(names), index_of))
    except FormatError as exc:
        expected = str(exc)
    if flat is not None:
        assert shape(flat) == expected, text
    try:
        got = shape(_parse_poly(text, len(names), index_of))
    except FormatError as exc:
        got = str(exc)
    assert got == expected, text
    return flat is not None


FLAT_EDGES = [
    # flat sums that no printer writes: repeats that add or cancel, zero
    # and leading-zero literals, exponent 0 and a variable repeated
    "x1 - x1", "x1 + 2*x1 - 3*x1 + x2", "-x2 + x1 + x2", "0", "-0", "0*x1 + x2",
    "007*x1^007 + 0", "x1^0 + 1", "x1*x1 - x1^2", "x1^2*x1 - x2*x1^3",
    "x1^200*x2^55 + x1^255",
]


def test_flat_reader_matches_the_parser_on_int_polynomials_seeded():
    names = default_names(2)
    for text in FLAT_EDGES:
        assert reader_agrees(text, names, {}), text
    # format_poly output with int coefficients over 1-33 variables, with a
    # term of degree 255 (the widest that fits the narrowest width) or 256
    rng = random.Random(28)
    read = {255: 0, 256: 0}
    for _ in range(300):
        nvars = rng.randint(1, 33)
        names = default_names(nvars)
        terms = {}
        for _ in range(rng.randint(0, 6)):
            exps = tuple(rng.randint(0, 3) if rng.random() < 0.3 else 0
                         for _ in range(nvars))
            terms[exps] = rng.choice([-1, 1]) * rng.choice([1, 2, 7, 10**30])
        top = rng.choice([255, 256])
        split = rng.randint(0, top)
        wide = [0] * nvars
        wide[rng.randrange(nvars)] += split
        wide[rng.randrange(nvars)] += top - split
        terms[tuple(wide)] = rng.choice([-3, 1])
        text = format_poly(Poly(nvars, terms), names)
        if reader_agrees(text, names, {}):
            read[top] += 1
    # a degree past the narrowest width is left to the parser, which widens
    assert read[256] == 0 and read[255] > 100


def test_flat_reader_reads_every_listing_body():
    count = 0
    for names, bodies in listing_bodies():
        keys = {}
        for text in bodies:
            assert reader_agrees(text, names, keys), text
            count += 1
    assert count == 720


def test_flat_reader_matches_the_parser_on_mutated_listing_bodies_seeded():
    # one character replaced, inserted or deleted; the keys of a listing
    # are shared across its mutations, as parse_system shares them
    rng = random.Random(2028)
    read = total = 0
    for names, bodies in listing_bodies():
        keys = {}
        for text in bodies:
            for _ in range(4):
                i = rng.randrange(len(text) + 1)
                c = rng.choice(MUTATION_CHARS)
                edit = rng.randrange(3)
                if edit == 0:
                    mutated = text[:i] + c + text[i + 1:]
                elif edit == 1:
                    mutated = text[:i] + c + text[i:]
                else:
                    mutated = text[:i] + text[i + 1:]
                read += reader_agrees(mutated, names, keys)
                total += 1
    # both paths are exercised
    assert 0 < read < total


LISTING_NAMES = ["x1", "a", "b_11", "b_32", "c", "alpha63"]


def test_poly_round_trip_with_listing_names_seeded():
    rng = random.Random(34)
    for rad in (0, 2, 3, 7):
        for _ in range(60):
            p = random_poly(rng, 6, rad)
            assert parse_poly(format_poly(p, LISTING_NAMES), LISTING_NAMES) == p


def test_division_by_polynomial_rejected():
    names = default_names(2)
    with pytest.raises(FormatError):
        parse_poly("x1/x2", names)


def test_scalar_round_trip():
    rng = random.Random(33)
    for rad in (0, 2, 3, 7):
        for _ in range(80):
            s = random_scalar(rng, rad)
            assert parse_scalar(format_scalar(s)) == s


def test_scalar_matrix_round_trip():
    rows = [
        [Scalar(-2), Scalar(0), Scalar(-1)],
        [Scalar(-2), Scalar(0, 1, 3), Scalar(2)],
        [Scalar(Fraction(2, 3)), Scalar(0, Fraction(1, 3), 3),
         Scalar(Fraction(-2, 3))],
    ]
    text = format_scalar_matrix(rows)
    assert all(isinstance(cell, str) for row in text for cell in row)
    assert parse_scalar_matrix(text) == rows


def test_default_names():
    assert default_names(3) == ["x1", "x2", "x3"]
    assert default_names(0) == []


def test_format_poly_rejects_wrong_name_count():
    p = Poly.variable(2, 0)
    with pytest.raises(FormatError):
        format_poly(p, ["x1"])


def test_parse_monomial():
    names = ["x1", "x2", "x3"]
    assert parse_monomial("x1^2*x3", names) == (2, 0, 1)
    assert parse_monomial("1", names) == (0, 0, 0)
    for text in ("2*x1", "x1 + x2", "0", "-x2"):
        with pytest.raises(FormatError) as err:
            parse_monomial(text, names)
        assert str(err.value) == "not a monomial: %r" % text


def test_a_radicand_is_split_once_per_parse(monkeypatch):
    # the 100 sqrt(999999999989) tokens of one line build one root: the
    # square-free check runs once, not once per token
    import linnij.exactfield
    splits = []
    split = linnij.exactfield.square_free_split
    monkeypatch.setattr(linnij.exactfield, "square_free_split",
                        lambda n: splits.append(n) or split(n))
    text = " + ".join(["sqrt(999999999989)*x1"] * 100)
    p = parse_poly(text, ["x1", "x2"])
    assert splits == [999999999989]
    assert p == Poly(2, {(1, 0): 100 * Scalar(0, 1, 999999999989)})
    del splits[:]
    # once in each parse, through groups and powers alike
    assert parse_poly("(sqrt(2)*x1 + sqrt(2))*sqrt(2)^3 - x1/sqrt(2)", ["x1"]) == \
        parse_poly("4*x1 - 1/2*sqrt(2)*x1 + 4", ["x1"])
    assert splits == [2, 2]
