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


def test_parse_errors():
    names = default_names(2)
    bad = ["x3", "x1 +", "x1^", "x1^x2", "(x1", "x1)", "", "1/(0)",
           "x1**2", "sqrt(12)", "sqrt(x1)", "foo",
           "sqrt(1000000000000000000000000000057)"]
    for text in bad:
        with pytest.raises(FormatError):
            parse_poly(text, names)


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
