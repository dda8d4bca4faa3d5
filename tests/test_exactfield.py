import random
from fractions import Fraction

import pytest

from linnij.errors import NotRepresentableError, RadicandMismatchError
from linnij.exactfield import ONE, ZERO, Scalar, scalar_sqrt, square_free_split


def random_scalar(rng, rad=0):
    rat = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    if rad == 0:
        return Scalar(rat)
    irr = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return Scalar(rat, irr, rad)


def test_field_axioms_seeded():
    rng = random.Random(11)
    for _ in range(300):
        rad = rng.choice([0, 2, 3, 5])
        a = random_scalar(rng, rad)
        b = random_scalar(rng, rad)
        c = random_scalar(rng, rad)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a
        assert a * ONE == a
        assert a - a == ZERO
        if not a.is_zero():
            assert a * a.inverse() == ONE


def _reference(op, a, b=None):
    """``op`` on plain Fraction parts, built through the public constructor."""
    ar, ai = Fraction(a.rat), Fraction(a.irr)
    if op == "neg":
        return Scalar(-ar, -ai, a.rad)
    if op == "inverse":
        norm = ar * ar - a.rad * ai * ai
        return Scalar(ar / norm, -ai / norm, a.rad)
    br, bi = Fraction(b.rat), Fraction(b.irr)
    d = a.rad or b.rad
    if op == "+":
        return Scalar(ar + br, ai + bi, d)
    if op == "-":
        return Scalar(ar - br, ai - bi, d)
    if op == "*":
        return Scalar(ar * br + d * ai * bi, ar * bi + ai * br, d)
    norm = br * br - d * bi * bi
    return Scalar((ar * br - d * ai * bi) / norm, (ai * br - ar * bi) / norm, d)


def _assert_canonical(value):
    assert type(value.rat) is Fraction and type(value.irr) is Fraction
    assert type(value.rad) is int
    assert (value.irr == 0) == (value.rad == 0)


def test_arithmetic_matches_public_constructor_seeded():
    # results come from the trusted Scalar._new; the reference from Scalar()
    rng = random.Random(31)
    ops = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
           "*": lambda a, b: a * b, "/": lambda a, b: a / b}
    for _ in range(1500):
        rad = rng.choice([0, 2, 3])
        a = random_scalar(rng, rad if rng.random() < 0.7 else 0)
        b = random_scalar(rng, rad if rng.random() < 0.7 else 0)
        if rad and rng.random() < 0.2:
            b = Scalar(b.rat, -a.irr, rad)  # sums cancel the irrational part
        for name, fn in ops.items():
            if name == "/" and b.is_zero():
                continue
            got = fn(a, b)
            want = _reference(name, a, b)
            _assert_canonical(got)
            assert (got.rat, got.irr, got.rad) == (want.rat, want.irr, want.rad)
        # int and Fraction operands on either side
        k = rng.choice([rng.randint(-4, 4), Fraction(rng.randint(-4, 4), rng.randint(1, 3))])
        ks = Scalar(k)
        for got, want in [(a + k, a + ks), (k + a, ks + a), (a - k, a - ks),
                          (k - a, ks - a), (a * k, a * ks), (k * a, ks * a)]:
            _assert_canonical(got)
            assert (got.rat, got.irr, got.rad) == (want.rat, want.irr, want.rad)
        for name, got in [("neg", -a)] + ([("inverse", a.inverse())] if a else []):
            want = _reference(name, a)
            _assert_canonical(got)
            assert (got.rat, got.irr, got.rad) == (want.rat, want.irr, want.rad)


def test_mixed_radicands_add_when_one_side_rational():
    a = Scalar(1, 2, 3)
    b = Scalar(Fraction(1, 2))
    assert a + b == Scalar(Fraction(3, 2), 2, 3)
    assert (a * b).rad == 3


def test_mixed_radicands_reject():
    with pytest.raises(RadicandMismatchError):
        Scalar(0, 1, 2) + Scalar(0, 1, 3)
    with pytest.raises(RadicandMismatchError):
        Scalar(0, 1, 2) * Scalar(0, 1, 3)
    with pytest.raises(RadicandMismatchError):
        Scalar(1, 1, 2) - Scalar(1, 1, 3)
    with pytest.raises(RadicandMismatchError):
        Scalar(1, 1, 2) / Scalar(1, 1, 3)


def test_radicand_constructor_contract():
    # rad=1 folds into the rational part; vanishing irr drops the radicand;
    # non-square-free radicands are rejected rather than normalized
    assert Scalar(5, 7, 1) == Scalar(12)
    assert Scalar(1, 0, 7).rad == 0
    with pytest.raises(ValueError):
        Scalar(0, 1, 12)
    with pytest.raises(ValueError):
        Scalar(0, 1, 4)
    with pytest.raises(ValueError):
        Scalar(0, 1, 0)
    with pytest.raises(ValueError):
        Scalar(0, 1, -3)


def test_square_free_split():
    assert square_free_split(12) == (2, 3)
    assert square_free_split(49) == (7, 1)
    assert square_free_split(1) == (1, 1)
    assert square_free_split(360) == (6, 10)


def test_scalar_sqrt_round_trip_seeded():
    rng = random.Random(5)
    for _ in range(200):
        rad = rng.choice([0, 2, 3])
        a = random_scalar(rng, rad)
        square = a * a
        root = scalar_sqrt(square)
        # sqrt returns the nonnegative root
        assert root * root == square
        assert root.sign() >= 0


def test_scalar_sqrt_not_representable():
    with pytest.raises(NotRepresentableError):
        scalar_sqrt(Scalar(2, 1, 3))  # sqrt(2 + sqrt(3)) is not a + b*sqrt(3)
    with pytest.raises(NotRepresentableError):
        scalar_sqrt(Scalar(-4))


def test_sign_and_compare():
    assert Scalar(0, 1, 2).sign() == 1          # sqrt(2) > 0
    assert Scalar(3, -2, 3).sign() < 0          # 3 - 2*sqrt(3) < 0
    assert Scalar(7, -4, 3).sign() > 0          # 7 - 4*sqrt(3) > 0 (49 > 48)
    assert Scalar(2) > Scalar(0, 1, 3)          # 2 > sqrt(3)
    assert Scalar(0).sign() == 0


def test_power_and_negation():
    a = Scalar(1, 1, 2)  # 1 + sqrt(2)
    assert a ** 2 == Scalar(3, 2, 2)
    assert a ** 0 == ONE
    assert -a == Scalar(-1, -1, 2)


def test_hash_consistency():
    assert hash(Scalar(Fraction(4, 2))) == hash(Scalar(2))
    d = {Scalar(2, 1, 3): "x"}
    assert d[Scalar(2, 1, 3)] == "x"
