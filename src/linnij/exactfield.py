"""Exact scalars in a real quadratic extension of the rationals.

A scalar is stored as ``(a + b*sqrt(d))/m`` in four ints: ``m > 0``,
``gcd(a, b, m) = 1``, and ``d`` the square-free radicand, greater than 1,
exactly when ``b`` is nonzero; a rational carries ``b = d = 0``.  The form
is unique, as {1, sqrt(d)} is a basis of the extension whenever d is
square-free and greater than 1, so equality of the four ints is equality
of values.  ``rad`` is d, and ``rat`` and ``irr`` read the parts ``a/m``
and ``b/m`` as :class:`fractions.Fraction` values.

At most one irrational radicand may take part in a computation.  Combining
values tagged with two different nonzero radicands raises
:class:`~linnij.errors.RadicandMismatchError`; rationals combine with
everything.  No floating point is used anywhere.

Validation happens once, in the public constructor ``Scalar(rat, irr, rad)``
that parsers, the catalog loader and user code go through: it takes ``int``
or ``Fraction`` parts and an ``int`` radicand (anything else, a float or a
string included, is a ``TypeError``) and checks the radicand; the private
``Scalar._new`` then brings the parts over their least common denominator.
Every scalar, the constructor's, each arithmetic result and each copy or
unpickled one, is built by the one normaliser :func:`_scalar`, which
divides out ``gcd(a, b, m)`` with one :func:`math.gcd` and drops the
radicand of a vanished irrational part.  Each operation has one formula
on ints, and reads an ``int`` or ``Fraction`` operand through its
numerator and denominator; a sum of two values over the same m adds the
numerators alone.

A rational scalar equals the ``int`` or ``Fraction`` of the same value and
hashes as it does.  Outside this module every exact value is narrow: an
``int`` when it is integral, a ``Fraction`` when it is rational, and a
``Scalar`` only when its irrational part is nonzero.  :func:`_narrow` puts a
value in that form, :func:`parts` reads the ``(rat, irr, rad)`` of any
exact value, :func:`_integer_form` its ``(a, b, d, m)``, for a ``Scalar`` a
plain read of its fields, :func:`_radicand` its d through that form, and
:func:`_from_integer_form` builds the narrow value of such a form: only
this module reads a ``Scalar``'s fields or parts or builds a ``Scalar``
unchecked.

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

_RATIONAL = (int, Fraction)
_new_object = object.__new__
_gcd = math.gcd


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


def _common_rad(d: int, f: int) -> int:
    """The radicand of a result of operands with radicands ``d != f``: the
    nonzero one, and RadicandMismatchError when both are nonzero."""
    if not d:
        return f
    if not f:
        return d
    raise RadicandMismatchError("cannot mix sqrt(%d) with sqrt(%d)" % (d, f))


def _sign(a: int, b: int, d: int) -> int:
    """The sign of ``a + b*sqrt(d)``: -1, 0 or +1."""
    if not b:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if not a or (a > 0) == (b > 0):
        return sb
    # opposite signs: a^2 = d*b^2 is impossible, as sqrt(d) is irrational
    return -sb if a * a > d * b * b else sb


def _divide(a: int, b: int, d: int, m: int, c: int, e: int, f: int, n: int) -> "Scalar":
    """``(a + b*sqrt(d))/m`` over ``(c + e*sqrt(f))/n``, times the
    conjugate ``c - e*sqrt(d)`` over the norm ``c^2 - d*e^2``, which is
    nonzero for a nonzero divisor, as sqrt(d) is irrational."""
    if d != f:
        d = _common_rad(d, f)
    if not (c or e):
        raise ZeroDivisionError("scalar division by zero")
    norm = (c * c - d * e * e) * m
    if norm < 0:
        norm, n = -norm, -n
    return _scalar(n * (a * c - d * b * e), n * (b * c - a * e), d, norm)


@total_ordering
class Scalar:
    """An exact value ``(a + b*sqrt(rad))/m``, read as ``rat + irr*sqrt(rad)``."""

    __slots__ = ("_a", "_b", "rad", "_m")

    def __new__(cls, rat=0, irr=0, rad=0):
        if not (isinstance(rat, _RATIONAL) and isinstance(irr, _RATIONAL)
                and isinstance(rad, int)):
            raise TypeError("Scalar(%r, %r, %r): parts must be int or Fraction "
                            "and the radicand an int" % (rat, irr, rad))
        if rad < 0:
            raise ValueError("radicand must be nonnegative")
        if rad == 1:
            rat += irr
            irr = 0
        if not irr:
            rad = 0
        elif rad == 0:
            raise ValueError("irrational part requires a nonzero radicand")
        elif square_free_split(rad)[0] != 1:
            raise ValueError("radicand %d is not square-free" % rad)
        return Scalar._new(rat, irr, rad)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    def __reduce__(self):
        # copy and pickle rebuild a scalar from its four ints
        return _scalar, (self._a, self._b, self.rad, self._m)

    @staticmethod
    def _new(rat, irr, rad: int) -> "Scalar":
        """Trusted constructor from parts that are already valid: ``rat`` and
        ``irr`` int or Fraction, and ``rad`` 0 or a square-free radicand
        greater than 1; it brings the parts over their least common
        denominator and hands them to :func:`_scalar`."""
        p, q = rat.denominator, irr.denominator
        m = math.lcm(p, q)
        return _scalar(rat.numerator * (m // p), irr.numerator * (m // q), rad, m)

    @property
    def rat(self) -> Fraction:
        """The rational part ``a/m``."""
        return Fraction(self._a, self._m)

    @property
    def irr(self) -> Fraction:
        """The coefficient ``b/m`` of ``sqrt(rad)``."""
        return Fraction(self._b, self._m)

    @staticmethod
    def _coerce(value) -> "Scalar":
        """``value`` as a Scalar, NotImplemented when it is not exact."""
        if type(value) is Scalar:
            return value
        if isinstance(value, _RATIONAL):
            return _scalar(value.numerator, 0, 0, value.denominator)
        return NotImplemented  # type: ignore[return-value]

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        if type(other) is Scalar:
            c, e, f, n = other._a, other._b, other.rad, other._m
        elif isinstance(other, _RATIONAL):
            c, e, f, n = other.numerator, 0, 0, other.denominator
        else:
            return NotImplemented
        a, b, d, m = self._a, self._b, self.rad, self._m
        if d != f:
            d = _common_rad(d, f)
        if m == n:
            return _scalar(a + c, b + e, d, m)
        return _scalar(a * n + c * m, b * n + e * m, d, m * n)

    __radd__ = __add__

    def __neg__(self):
        return _scalar(-self._a, -self._b, self.rad, self._m)

    def __sub__(self, other):
        if type(other) is Scalar:
            c, e, f, n = other._a, other._b, other.rad, other._m
        elif isinstance(other, _RATIONAL):
            c, e, f, n = other.numerator, 0, 0, other.denominator
        else:
            return NotImplemented
        a, b, d, m = self._a, self._b, self.rad, self._m
        if d != f:
            d = _common_rad(d, f)
        if m == n:
            return _scalar(a - c, b - e, d, m)
        return _scalar(a * n - c * m, b * n - e * m, d, m * n)

    def __rsub__(self, other):
        if not isinstance(other, _RATIONAL):
            return NotImplemented
        c, n = other.numerator, other.denominator
        m = self._m
        return _scalar(c * m - self._a * n, -self._b * n, self.rad, m * n)

    def __mul__(self, other):
        if type(other) is Scalar:
            c, e, f, n = other._a, other._b, other.rad, other._m
        elif isinstance(other, _RATIONAL):
            c, n = other.numerator, other.denominator
            return _scalar(self._a * c, self._b * c, self.rad, self._m * n)
        else:
            return NotImplemented
        a, b, d = self._a, self._b, self.rad
        if d != f:
            d = _common_rad(d, f)
        return _scalar(a * c + d * b * e, a * e + b * c, d, self._m * n)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        # 1/((a + b*sqrt(d))/m) = m*(a - b*sqrt(d))/(a^2 - d*b^2)
        return _divide(1, 0, 0, 1, self._a, self._b, self.rad, self._m)

    def __truediv__(self, other):
        form = _integer_form(other)
        if form is None:
            return NotImplemented
        return _divide(self._a, self._b, self.rad, self._m, *form)

    def __rtruediv__(self, other):
        form = _integer_form(other)
        if form is None:
            return NotImplemented
        return _divide(*form, self._a, self._b, self.rad, self._m)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return power(self.inverse(), -exponent, ONE)
        return power(self, exponent, ONE)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        if type(other) is Scalar:
            return (self._a == other._a and self._b == other._b
                    and self._m == other._m and self.rad == other.rad)
        if isinstance(other, _RATIONAL):
            return (not self._b and self._a == other.numerator
                    and self._m == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a rational scalar hashes as the int or Fraction it equals
        if not self._b:
            return hash(self.rat)
        return hash((self.rat, self.irr, self.rad))

    def __bool__(self):
        return bool(self._a or self._b)

    def sign(self) -> int:
        """Sign of the real value: -1, 0 or +1."""
        return _sign(self._a, self._b, self.rad)

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __lt__(self, other):
        form = _integer_form(other)
        if form is None:
            return NotImplemented
        c, e, f, n = form
        d, m = self.rad, self._m
        if d != f:
            d = _common_rad(d, f)
        return _sign(self._a * n - c * m, self._b * n - e * m, d) < 0

    # -- misc --------------------------------------------------------------

    def __repr__(self):
        if not self._b:
            return "Scalar(%s)" % self.rat
        return "Scalar(%s, %s, rad=%d)" % (self.rat, self.irr, self.rad)


def _scalar(a: int, b: int, d: int, m: int) -> Scalar:
    """The one normaliser: the scalar ``(a + b*sqrt(d))/m`` of ints a, b and
    m > 0, with d the square-free radicand, greater than 1, whenever b is
    nonzero.  It divides out ``gcd(a, b, m)`` and drops the radicand of a
    vanished irrational part; nothing else is checked."""
    g = _gcd(a, b, m)
    if g != 1:
        a //= g
        b //= g
        m //= g
    out = _new_object(Scalar)
    _set_a(out, a)
    _set_b(out, b)
    _set_rad(out, d if b else 0)
    _set_m(out, m)
    return out


# Slot setters that bypass the immutability guard, for ``_scalar``.
_set_a = Scalar._a.__set__
_set_b = Scalar._b.__set__
_set_rad = Scalar.rad.__set__
_set_m = Scalar._m.__set__

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
        if value._b:
            return value
        a, m = value._a, value._m
        return a if m == 1 else Fraction(a, m)
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


def _integer_form(value) -> tuple[int, int, int, int] | None:
    """``(a, b, d, m)`` of an exact value ``(a + b*sqrt(d))/m`` in ints, m > 0
    the least common denominator of its parts and ``b = d = 0`` when it is
    rational: a ``Scalar``'s fields, and the numerator and denominator of
    an ``int`` or a ``Fraction``.  None for anything else."""
    if type(value) is Scalar:
        return value._a, value._b, value.rad, value._m
    if isinstance(value, _RATIONAL):
        return value.numerator, 0, 0, value.denominator
    return None


def _radicand(value) -> int:
    """The radicand d of an exact value, 0 when it is rational, read
    through :func:`_integer_form`.  TypeError for anything else, as
    :func:`parts` gives."""
    form = _integer_form(value)
    if form is None:
        raise TypeError("%r is not an int, a Fraction or a Scalar" % (value,))
    return form[2]


def _from_integer_form(a, b, d: int, m: int):
    """The narrow value ``(a + b*sqrt(d))/m`` for ``int`` or ``Fraction`` a
    and b, an int m > 0, and d the square-free radicand, greater than 1,
    whenever b is nonzero: the inverse of :func:`_integer_form`.  Fraction
    parts are first brought over their common denominator."""
    if type(a) is Fraction or type(b) is Fraction:
        k = math.lcm(a.denominator, b.denominator)
        a = a.numerator * (k // a.denominator)
        b = b.numerator * (k // b.denominator)
        m *= k
    if b:
        return _scalar(a, b, d, m)
    return Fraction(a, m) if a % m else a // m


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
