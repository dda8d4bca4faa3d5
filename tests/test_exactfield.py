import math
import operator
import random
from fractions import Fraction

import pytest

import reference_copies
from linnij import textio
from linnij.errors import NotRepresentableError, RadicandMismatchError
from linnij.exactfield import (
    ONE, Scalar, _content, _from_integer_form, _integer_form, _integral,
    _integral_row, _narrow, _quotient, parts, scalar_sqrt, square_free_split)
from linnij.nijenhuis import StructureConstants


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
        assert a + Scalar(0) == a
        assert a * ONE == a
        assert a - a == Scalar(0)
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


def integral_value(x):
    """The exact value of an int or an _Integral, as a Scalar."""
    return Scalar(x) if type(x) is int else Scalar(x.a, x.b, x.d)


def test_integral_arithmetic_matches_scalar_arithmetic_seeded():
    # the integral elements of the scalar elimination against Scalar
    # arithmetic: products, differences, exact quotients by an int, the
    # content, and the one division, which narrows
    rng = random.Random(3103)

    def draw(d):
        # few irrational parts, so that differences often cancel them
        return _integral(rng.randint(-40, 40), rng.randint(-2, 2), d)

    collapsed = 0
    for _ in range(400):
        d = rng.choice([2, 3, 5])
        x, y = draw(d), draw(d)
        for op in (operator.mul, operator.sub):
            result = op(x, y)
            assert integral_value(result) == op(integral_value(x), integral_value(y))
            collapsed += type(result) is int and (type(x) is not int or type(y) is not int)
        h = rng.randint(1, 9)
        assert integral_value(x * h // h) == integral_value(x)
        values = [draw(d) for _ in range(rng.randint(1, 4))]
        expected = 0
        for value in map(integral_value, values):
            expected = math.gcd(expected, int(value.rat), int(value.irr))
        assert _content(*values) == expected
        if y != 0:
            quotient = _quotient(x, y)
            assert quotient == integral_value(x) / integral_value(y)
            assert type(quotient) is (Scalar if parts(quotient)[1] else
                                      int if Fraction(quotient).denominator == 1 else Fraction)
    assert collapsed >= 20
    with pytest.raises(RadicandMismatchError):
        _integral(1, 1, 2) * _integral(1, 1, 3)
    with pytest.raises(RadicandMismatchError):
        _quotient(_integral(1, 1, 2), _integral(1, 1, 3))


def test_integral_row_clears_the_denominators_seeded():
    rng = random.Random(3104)
    root3 = Scalar(0, 1, 3)
    for _ in range(200):
        values = [_narrow(Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 12)))
                          + root3 * Fraction(rng.choice([0, rng.randint(-9, 9)]),
                                             rng.randint(1, 12)))
                  for _ in range(rng.randint(1, 5))]
        m, row = _integral_row(values)
        assert m == math.lcm(*(Fraction(x).denominator for v in values
                               for x in parts(v)[:2]))
        assert [_quotient(x, m) for x in row] == values


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


@pytest.mark.parametrize("parts", [
    (0.1,), ("1/3",), (1, 0.5, 2), (1, 1, 2.0), (1, 1, Fraction(2)),
], ids=["float", "string", "float-irr", "float-rad", "fraction-rad"])
def test_constructor_rejects_inexact_parts(parts):
    # a float would become its binary expansion, 0.1 the ratio
    # 3602879701896397/36028797018963968; a string is not a number
    with pytest.raises(TypeError):
        Scalar(*parts)


def test_callers_pass_inexact_parts_on_as_errors():
    with pytest.raises(TypeError):
        StructureConstants.from_relations(2, [(1, 1, 1, 0.5)])
    with pytest.raises(TypeError):
        StructureConstants([[[0.5, 0], [0, 0]], [[0, 0], [0, 0]]])


def test_square_free_split():
    assert square_free_split(12) == (2, 3)
    assert square_free_split(49) == (7, 1)
    assert square_free_split(1) == (1, 1)
    assert square_free_split(360) == (6, 10)
    rng = random.Random(12)
    for n in rng.sample(range(1, 2000), 300) + [1024, 1331, 1849, 1999]:
        # brute force: the largest f with f^2 dividing n
        f = max(d for d in range(1, n + 1) if n % (d * d) == 0)
        assert square_free_split(n) == (f, n // (f * f)), n
        if n > 1:
            if f == 1:
                assert Scalar(0, 1, n).rad == n
            else:
                with pytest.raises(ValueError, match="not square-free"):
                    Scalar(0, 1, n)


def full_trial_division_split(n):
    """(f, m) with n = f**2 * m by trial division up to the square root of
    what is left, as square_free_split first did it."""
    f, m, d = 1, 1, 2
    while d * d <= n:
        if n % d:
            d += 2 - (d == 2)
        elif n % (d * d):
            n //= d
            m *= d
        else:
            n //= d * d
            f *= d
    return f, m * n


def test_square_free_split_matches_full_trial_division_seeded():
    # what the cube-root bound leaves unfactored is 1, p, p^2 or p*q: squares
    # and products of primes on either side of 10^4 and 10^6 end there, and
    # primes near 10^12 are the slowest case for full trial division
    primes = [9973, 10007, 999961, 999979, 999983, 1000003, 1000033]
    rng = random.Random(29)
    values = list(range(1, 600)) + [10**12, 999999999989, 999999999961]
    values += [rng.randrange(1, 10**8) for _ in range(300)]
    values += [rng.randrange(1, 10**12) for _ in range(30)]
    for p, q in zip(primes, primes[1:]):
        values += [p * p, p * q, rng.randint(2, 60) * p * p, rng.randint(2, 60) * p * q]
    values += [p ** 3 for p in primes[:3]]
    for n in values:
        assert square_free_split(n) == full_trial_division_split(n), n


def test_scalar_sqrt_round_trip_seeded():
    rng = random.Random(5)
    for _ in range(200):
        rad = rng.choice([0, 2, 3])
        a = random_scalar(rng, rad)
        square = a * a
        root = scalar_sqrt(square)
        # sqrt returns the nonnegative root
        assert root * root == square
        assert root >= 0


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


@pytest.mark.parametrize("other", [0.5, "a"], ids=["float", "str"])
def test_ordering_against_an_inexact_value_is_a_type_error(other):
    # each order operator declines a value that is not exact, and so does
    # its reflection, so Python raises TypeError on either side
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        with pytest.raises(TypeError):
            compare(Scalar(1), other)
        with pytest.raises(TypeError):
            compare(other, Scalar(1))
    # an int or a Fraction on either side is compared by value
    root3 = Scalar(0, 1, 3)
    assert Scalar(1) > Fraction(1, 2) and 2 > root3 and Fraction(7, 4) >= root3
    assert not 1 >= root3 and Scalar(2) >= 2 and 2 <= Scalar(2)


def test_power_and_negation():
    a = Scalar(1, 1, 2)  # 1 + sqrt(2)
    assert a ** 2 == Scalar(3, 2, 2)
    assert a ** 0 == ONE
    assert -a == Scalar(-1, -1, 2)


def test_hash_consistency():
    assert hash(Scalar(Fraction(4, 2))) == hash(Scalar(2))
    d = {Scalar(2, 1, 3): "x"}
    assert d[Scalar(2, 1, 3)] == "x"


def test_rational_scalars_hash_as_the_rationals_they_equal():
    for value in (0, 2, -7, 10**30, Fraction(1, 2), Fraction(-22, 7)):
        assert Scalar(value) == value
        assert hash(Scalar(value)) == hash(value)
    assert {Scalar(2): "two"}[2] == "two"
    assert {Fraction(1, 2): "half"}[Scalar(Fraction(1, 2))] == "half"


RADICANDS = (2, 3, 5, 6, 7)


def _draw_part(rng, big):
    """An int or Fraction part, some with 100-digit numerator and denominator."""
    if big:
        top = rng.randrange(10**99, 10**100) * rng.choice((-1, 1))
        return top if rng.random() < 0.3 else Fraction(top, rng.randrange(10**99, 10**100))
    top = rng.randint(-30, 30)
    return top if rng.random() < 0.3 else Fraction(top, rng.randint(1, 12))


def _draw(rng, rad):
    """``(rat, irr, rad)`` of a zero, a rational or an irrational over ``rad``."""
    kind = rng.random()
    big = rng.random() < 0.15
    if kind < 0.08:
        return 0, 0, rng.choice((0, rad))
    if kind < 0.3:
        return _draw_part(rng, big), 0, 0
    return _draw_part(rng, big), _draw_part(rng, big), rad


def _outcome(fn, *args):
    """``fn(*args)``, or the class of the error it raises."""
    try:
        return fn(*args)
    except (ArithmeticError, RadicandMismatchError, NotRepresentableError) as exc:
        return type(exc)


def _agrees(new, old):
    """``new``, computed by ``Scalar``, is ``old``, computed by the reference:
    the same error class, the same narrow type and value, or a Scalar with
    the reference's parts and integer form."""
    if type(old) is reference_copies.Scalar:
        return (type(new) is Scalar
                and (new.rat, new.irr, new.rad) == (old.rat, old.irr, old.rad)
                and _integer_form(new) == reference_copies._integer_form(old))
    return type(new) is type(old) and new == old


def test_scalar_matches_the_fraction_reference_seeded(monkeypatch):
    # the four-int Scalar against the two-Fraction one it replaced, on every
    # operation and reader, over rationals, radicands 2, 3, 5, 6 and 7,
    # zero, sums that cancel the irrational part and 100-digit parts
    ref = reference_copies
    rng = random.Random(3701)
    seen = dict.fromkeys(("rational", "zero", "big", "cancelled", "mismatch",
                          "zero division") + RADICANDS, 0)
    binary = (operator.add, operator.sub, operator.mul, operator.truediv,
              operator.eq, operator.lt, operator.le, operator.gt, operator.ge)

    def formatted(value, reader):
        with monkeypatch.context() as patch:
            patch.setattr(textio, "parts", reader)
            return textio.format_scalar(value)

    for _ in range(2000):
        rad = rng.choice(RADICANDS)
        x_parts = _draw(rng, rad)
        y_parts = _draw(rng, rad if rng.random() < 0.9 else rng.choice(RADICANDS))
        if x_parts[1] and rng.random() < 0.2:
            y_parts = (y_parts[0], -x_parts[1], rad)  # x + y is rational
        nx, ox = Scalar(*x_parts), ref.Scalar(*x_parts)
        ny, oy = Scalar(*y_parts), ref.Scalar(*y_parts)
        seen[nx.rad] = seen.get(nx.rad, 0) + 1
        seen["zero"] += not nx
        seen["rational"] += bool(nx) and not nx.rad
        seen["big"] += max(abs(nx.rat.numerator), abs(nx.irr.numerator)) > 10**90
        seen["cancelled"] += bool(nx.rad and ny.rad == nx.rad and not (nx + ny).rad)
        # a rational y also meets x as the int or Fraction it is
        operands = [(ny, oy)]
        if not ny.rad:
            operands.append((_narrow(ny),) * 2)
        for new, old in operands:
            for op in binary:
                for got, want in ((_outcome(op, nx, new), _outcome(op, ox, old)),
                                  (_outcome(op, new, nx), _outcome(op, old, ox))):
                    assert _agrees(got, want), (op, x_parts, y_parts)
                    seen["mismatch"] += want is RadicandMismatchError
                    seen["zero division"] += want is ZeroDivisionError
        for fn in (operator.neg, operator.abs, bool, repr, hash, Scalar.sign,
                   Scalar.inverse, Scalar.is_zero):
            old_fn = getattr(ref.Scalar, fn.__name__, fn)
            assert _agrees(_outcome(fn, nx), _outcome(old_fn, ox)), (fn, x_parts)
        for k in (-3, -1, 0, 1, 2, 4):
            assert _agrees(_outcome(pow, nx, k), _outcome(pow, ox, k)), (k, x_parts)
        assert _agrees(_narrow(nx), ref._narrow(ox))
        assert parts(nx) == ref.parts(ox)
        assert [type(p) for p in parts(nx)] == [type(p) for p in ref.parts(ox)]
        assert _integer_form(_narrow(nx)) == ref._integer_form(ref._narrow(ox))
        assert _agrees(_from_integer_form(*_integer_form(nx)),
                       ref._from_integer_form(*ref._integer_form(ox)))
        k = rng.randint(1, 6)
        assert _agrees(_from_integer_form(nx.rat, nx.irr, nx.rad, k),
                       ref._from_integer_form(ox.rat, ox.irr, ox.rad, k))
        for value, old in ((nx, ox), (_narrow(nx), ref._narrow(ox))):
            assert textio.format_scalar(value) == formatted(old, ref.parts)
        assert _agrees(_outcome(scalar_sqrt, nx * nx), _outcome(ref.scalar_sqrt, ox * ox))
        if max(abs(nx.rat.numerator), nx.rat.denominator) < 10**6:
            # a rational square root that does not exist factors the value
            assert _agrees(_outcome(scalar_sqrt, nx), _outcome(ref.scalar_sqrt, ox))
        if not nx.rad:
            # a rational scalar equals and hashes as its int or Fraction
            value = _narrow(nx)
            assert nx == value and value == nx and hash(nx) == hash(value)
            assert type(value) is (int if nx.rat.denominator == 1 else Fraction)
    assert min(seen.values()) >= 20, seen
    with pytest.raises(ZeroDivisionError):
        Scalar(0).inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar(1, 1, 3) / Fraction(0)
    with pytest.raises(RadicandMismatchError):
        Scalar(1, 1, 6) < Scalar(1, 1, 7)
