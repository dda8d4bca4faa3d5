import math
import random
from fractions import Fraction

import pytest

from linnij.errors import FormatError
from linnij.exactfield import Scalar
from linnij.polyring import Poly
from linnij.textio import (
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
]


def test_parse_errors():
    names = default_names(2)
    for text, message in PARSE_ERRORS:
        with pytest.raises(FormatError) as info:
            parse_poly(text, names)
        assert str(info.value) == message


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
        inverse = rv.constant_value().inverse()
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
