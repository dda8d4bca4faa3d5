"""Exact scalars in a real quadratic extension of the rationals.

A scalar is stored as ``rat + irr*sqrt(rad)`` where ``rat`` and ``irr`` are
:class:`fractions.Fraction` values and ``rad`` is a square-free integer
radicand.  Plain rationals carry ``rad == 0`` (and ``irr == 0``); this is
kept canonical, so componentwise equality of ``(rat, irr, rad)`` is equality
of values — {1, sqrt(rad)} is a basis of the extension whenever rad is
square-free and greater than 1.

At most one irrational radicand may take part in a computation.  Combining
values tagged with two different nonzero radicands raises
:class:`~linnij.errors.RadicandMismatchError`; rationals combine with
everything.  No floating point is used anywhere.

Validation happens once, in the public constructor ``Scalar(rat, irr, rad)``
that parsers, the catalog loader and user code go through: it takes ``int``
or ``Fraction`` parts and an ``int`` radicand (anything else, a float or a
string included, is a ``TypeError``), converts the parts to ``Fraction``
and checks the radicand.  Arithmetic results are built
from parts that are already valid, through the private ``Scalar._new``, which
only restores the canonical form; each operation has one formula.

A rational scalar equals the ``int`` or ``Fraction`` of the same value and
hashes as it does.  Outside this module every exact value is narrow: an
``int`` when it is integral, a ``Fraction`` when it is rational, and a
``Scalar`` only when its irrational part is nonzero.  :func:`_narrow` puts a
value in that form, :func:`parts` reads the ``(rat, irr, rad)`` of any
exact value and :func:`_integer_form` its ``(a + b*sqrt(d))/m`` in ints:
only this module reads a ``Scalar``'s parts or calls ``Scalar._new``.

The scalar elimination of :mod:`linnij.polymatrix` runs on integral rows:
:func:`_integral_row` clears a row's denominators into ints and
:class:`_Integral` elements of Z[sqrt(d)], :func:`_content` is the gcd of
their int parts, and :func:`_quotient` the one division back to a narrow
value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

from .errors import NotRepresentableError, RadicandMismatchError

_FRACTION_ZERO = Fraction(0)
_RATIONAL = (int, Fraction)
_new_object = object.__new__


def square_free_split(n: int) -> tuple[int, int]:
    """Write a positive integer as f**2 * m with m square-free; return (f, m).
    Trial division by 2, then by odd d only, while d**3 is at most the part
    not yet factored: what is left then has no prime factor below d, so it
    is 1, a prime p, p*q or p**2, and only p**2 is a perfect square."""
    if n <= 0:
        raise ValueError("positive integer required")
    f, m, d = 1, 1, 2
    while d * d * d <= n:
        if n % d:
            d += 2 - (d == 2)
        elif n % (d * d):
            n //= d
            m *= d
        else:
            n //= d * d
            f *= d
    root = math.isqrt(n)
    if root > 1 and root * root == n:
        return f * root, m
    return f, m * n


def power(base, exponent: int, one):
    """``base ** exponent`` by square-and-multiply, starting from ``one``,
    for a nonnegative int exponent."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


@total_ordering
class Scalar:
    """An exact value ``rat + irr*sqrt(rad)``."""

    __slots__ = ("rat", "irr", "rad")

    def __init__(self, rat=0, irr=0, rad=0):
        if not (isinstance(rat, _RATIONAL) and isinstance(irr, _RATIONAL)
                and isinstance(rad, int)):
            raise TypeError("Scalar(%r, %r, %r): parts must be int or Fraction "
                            "and the radicand an int" % (rat, irr, rad))
        rat = Fraction(rat)
        irr = Fraction(irr)
        if rad < 0:
            raise ValueError("radicand must be nonnegative")
        if rad == 1:
            rat += irr
            irr = Fraction(0)
            rad = 0
        if irr == 0:
            rad = 0
        elif rad == 0:
            raise ValueError("irrational part requires a nonzero radicand")
        elif square_free_split(rad)[0] != 1:
            raise ValueError("radicand %d is not square-free" % rad)
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "irr", irr)
        object.__setattr__(self, "rad", rad)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @staticmethod
    def _new(rat: Fraction, irr: Fraction, rad: int) -> "Scalar":
        """Trusted constructor for results of arithmetic on valid scalars.

        ``rat`` and ``irr`` must be ``Fraction`` and ``rad`` 0 or a
        square-free radicand greater than 1; nothing is converted or checked
        beyond dropping the radicand of a vanished irrational part.
        """
        out = _new_object(Scalar)
        _set_rat(out, rat)
        if irr:
            _set_irr(out, irr)
            _set_rad(out, rad)
        else:
            _set_irr(out, _FRACTION_ZERO)
            _set_rad(out, 0)
        return out

    # -- helpers ---------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, _RATIONAL):
            rat = value if type(value) is Fraction else Fraction(value)
            return Scalar._new(rat, _FRACTION_ZERO, 0)
        return NotImplemented  # type: ignore[return-value]

    def _common_rad(self, other: "Scalar") -> int:
        if self.rad == other.rad:
            return self.rad
        if self.rad == 0:
            return other.rad
        if other.rad == 0:
            return self.rad
        raise RadicandMismatchError(
            "cannot mix sqrt(%d) with sqrt(%d)" % (self.rad, other.rad)
        )

    def is_zero(self) -> bool:
        return not (self.rat or self.irr)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        rad = self._common_rad(other)
        return Scalar._new(self.rat + other.rat, self.irr + other.irr, rad)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._new(-self.rat, -self.irr, self.rad)

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        rad = self._common_rad(other)
        return Scalar._new(self.rat - other.rat, self.irr - other.irr, rad)

    def __rsub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        rad = self._common_rad(other)
        rat = self.rat * other.rat + rad * self.irr * other.irr
        irr = self.rat * other.irr + self.irr * other.rat
        return Scalar._new(rat, irr, rad)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        # 1/(a+b*sqrt(d)) = (a-b*sqrt(d))/(a^2-d*b^2); the norm is a^2 when
        # b = 0, and nonzero as sqrt(d) is irrational for square-free d > 1.
        norm = self.rat * self.rat - self.rad * self.irr * self.irr
        return Scalar._new(self.rat / norm, -self.irr / norm, self.rad)

    def __truediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return power(self.inverse(), -exponent, ONE)
        return power(self, exponent, ONE)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (
            self.rat == other.rat
            and self.irr == other.irr
            and self.rad == other.rad
        )

    def __hash__(self):
        # a rational scalar hashes as the int or Fraction it equals
        if not self.irr:
            return hash(self.rat)
        return hash((self.rat, self.irr, self.rad))

    def __bool__(self):
        return not self.is_zero()

    def sign(self) -> int:
        """Sign of the real value: -1, 0 or +1."""
        if self.irr == 0:
            return (self.rat > 0) - (self.rat < 0)
        if self.rat == 0:
            return 1 if self.irr > 0 else -1
        sr = 1 if self.rat > 0 else -1
        si = 1 if self.irr > 0 else -1
        if sr == si:
            return sr
        # opposite signs: compare rat^2 against rad*irr^2
        return sr if self.rat * self.rat > self.rad * self.irr * self.irr else si

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __lt__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    # -- misc --------------------------------------------------------------

    def __repr__(self):
        if self.irr == 0:
            return "Scalar(%s)" % self.rat
        return "Scalar(%s, %s, rad=%d)" % (self.rat, self.irr, self.rad)


# Slot setters that bypass the immutability guard, for ``Scalar._new``.
_set_rat = Scalar.rat.__set__
_set_irr = Scalar.irr.__set__
_set_rad = Scalar.rad.__set__

ONE = Scalar(1)


def rational_sqrt(value: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, or None."""
    if value < 0:
        raise ValueError("negative radicand")
    if value == 0:
        return Fraction(0)
    pn = math.isqrt(value.numerator)
    pd = math.isqrt(value.denominator)
    if pn * pn == value.numerator and pd * pd == value.denominator:
        return Fraction(pn, pd)
    return None


def _narrow(value):
    """An exact value in its narrowest type: the ``int`` or ``Fraction`` of a
    rational value (an ``int`` is its own numerator over 1), or the
    ``Scalar`` itself when its irrational part is nonzero."""
    if type(value) is Scalar:
        if value.irr:
            return value
        value = value.rat
    return value.numerator if value.denominator == 1 else value


def parts(value) -> tuple:
    """``(rat, irr, rad)`` of an exact value: a ``Scalar``'s own parts, and
    ``(value, 0, 0)`` for an ``int`` or a ``Fraction``.  TypeError for
    anything else."""
    if type(value) is Scalar:
        return value.rat, value.irr, value.rad
    if isinstance(value, _RATIONAL):
        return value, 0, 0
    raise TypeError("%r is not an int, a Fraction or a Scalar" % (value,))


def _integer_form(value) -> tuple[int, int, int, int]:
    """``(a, b, d, m)`` of a narrow value ``(a + b*sqrt(d))/m`` in ints, m > 0
    the least common denominator of its parts and ``b = d = 0`` when it is
    rational."""
    kind = type(value)
    if kind is int:
        return value, 0, 0, 1
    if kind is Fraction:
        return value.numerator, 0, 0, value.denominator
    rat, irr = value.rat, value.irr
    m = math.lcm(rat.denominator, irr.denominator)
    return (rat.numerator * (m // rat.denominator),
            irr.numerator * (m // irr.denominator), value.rad, m)


def _from_integer_form(a, b, d: int, m: int):
    """The narrow value ``(a + b*sqrt(d))/m`` for ``int`` or ``Fraction`` a
    and b, an int m > 0, and d the square-free radicand, greater than 1,
    whenever b is nonzero: the inverse of :func:`_integer_form`."""
    if b:
        return Scalar._new(Fraction(a, m), Fraction(b, m), d)
    return _narrow(Fraction(a, m)) if a else 0


class _Integral:
    """An element ``a + b*sqrt(d)`` of Z[sqrt(d)], with int parts and b
    nonzero, as an integral row of the scalar elimination holds it
    (:func:`linnij.polymatrix._eliminate`).  It takes products and
    differences with ints and with other such elements, and ``// h`` by an
    int h that divides both parts; a result whose irrational part vanishes
    is the int it equals (:func:`_integral`), so an element is never zero.
    Two radicands meeting raise :class:`RadicandMismatchError`, as they do
    in :class:`Scalar` arithmetic."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int, d: int):
        self.a = a
        self.b = b
        self.d = d

    def _pair(self, other) -> tuple[int, int]:
        """The int parts of an int or of an element of the same ring."""
        if type(other) is int:
            return other, 0
        if other.d != self.d:
            raise RadicandMismatchError(
                "cannot mix sqrt(%d) with sqrt(%d)" % (self.d, other.d))
        return other.a, other.b

    def __mul__(self, other):
        c, e = self._pair(other)
        a, b, d = self.a, self.b, self.d
        return _integral(a * c + d * b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def __sub__(self, other):
        c, e = self._pair(other)
        return _integral(self.a - c, self.b - e, self.d)

    def __rsub__(self, other):
        c, e = self._pair(other)
        return _integral(c - self.a, e - self.b, self.d)

    def __floordiv__(self, h: int):
        return _integral(self.a // h, self.b // h, self.d)


def _integral(a: int, b: int, d: int):
    """``a + b*sqrt(d)`` as an int when b is 0, else as an :class:`_Integral`."""
    return _Integral(a, b, d) if b else a


def _integral_row(values) -> tuple[int, list]:
    """``(m, row)`` for narrow ``values``: m > 0 their least common
    denominator (:func:`_integer_form`) and ``row`` each value times m, an
    int or an :class:`_Integral`."""
    forms = [_integer_form(v) for v in values]
    m = math.lcm(*(form[3] for form in forms))
    return m, [_integral(a * (m // k), b * (m // k), d) for a, b, d, k in forms]


def _content(*values) -> int:
    """:func:`math.gcd` of the int parts of ints and :class:`_Integral`
    values."""
    return math.gcd(*(x for v in values
                      for x in ((v,) if type(v) is int else (v.a, v.b))))


def _quotient(value, divisor):
    """The narrow value ``value / divisor`` of an int or :class:`_Integral`
    ``value`` and a nonzero one ``divisor``: ``value`` times the conjugate
    of ``divisor``, over its norm."""
    if type(divisor) is int:
        if type(value) is int:
            q, r = divmod(value, divisor)
            return Fraction(value, divisor) if r else q
        ring = value
    else:
        ring = divisor
    a, b = ring._pair(value)
    c, e = ring._pair(divisor)
    d = ring.d
    norm = c * c - d * e * e  # nonzero, as sqrt(d) is irrational
    if norm < 0:
        norm, c, e = -norm, -c, -e
    return _from_integer_form(a * c - d * b * e, b * c - a * e, d, norm)


def _size(value) -> int:
    """An int M such that no integer part of ``value**k`` is larger than
    ``M**k``: the larger of ``|a| + |b|*d`` and m (:func:`_integer_form`).
    The ring's powers of values and the parser's powers of constants are
    bounded by it."""
    a, b, d, m = _integer_form(value)
    return max(abs(a) + abs(b) * d, m)


def scalar_sqrt(value):
    """Exact nonnegative square root of a nonnegative exact value, narrow.

    Raises :class:`NotRepresentableError` if no square root exists within
    a single quadratic extension (use of a second radicand is never
    attempted when the input already carries one).
    """
    rat, irr, rad = parts(value)
    if value < 0:
        raise NotRepresentableError("square root of a negative value")
    if not irr:
        r = rational_sqrt(Fraction(rat))
        if r is not None:
            return _narrow(r)
        # sqrt(num/den) = sqrt(num*den)/den = (f/den)*sqrt(m)
        f, m = square_free_split(rat.numerator * rat.denominator)
        return Scalar(0, Fraction(f, rat.denominator), m)
    # (u + v*sqrt(d))^2 = value requires u^2 = (rat +- r)/2 with
    # r = sqrt(rat^2 - d*irr^2) rational.
    norm = rat * rat - rad * irr * irr
    if norm >= 0:
        r = rational_sqrt(norm)
        if r is not None:
            for branch in (r, -r):
                usq = (rat + branch) / 2
                if usq <= 0:
                    continue
                u = rational_sqrt(usq)
                if u is None or u == 0:
                    continue
                v = irr / (2 * u)
                cand = Scalar(u, v, rad)
                if cand * cand == value:
                    return cand if cand.sign() > 0 else -cand
    raise NotRepresentableError(
        "no exact square root in Q(sqrt(%d))" % rad
    )
