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
that parsers, the catalog loader and user code go through: it converts the
parts to ``Fraction`` and checks the radicand.  Arithmetic results are built
from parts that are already valid, through the private ``Scalar._new``, which
only restores the canonical form; two rational operands cost one
``Fraction`` operation.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import NotRepresentableError, RadicandMismatchError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13)

_FRACTION_ZERO = Fraction(0)
_new_object = object.__new__


def _is_square_free(n: int) -> bool:
    if n < 2:
        return n == 1
    for p in _SMALL_PRIMES:
        if n % (p * p) == 0:
            return False
    f = 17
    while f * f <= n:
        if n % (f * f) == 0:
            return False
        f += 2
    return True


def square_free_split(n: int) -> tuple[int, int]:
    """Write a positive integer as f**2 * m with m square-free; return (f, m)."""
    if n <= 0:
        raise ValueError("positive integer required")
    f, m, d = 1, 1, 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
            f *= d
        if n % d == 0:
            n //= d
            m *= d
        d += 1
    return f, m * n


class Scalar:
    """An exact value ``rat + irr*sqrt(rad)``."""

    __slots__ = ("rat", "irr", "rad")

    def __init__(self, rat=0, irr=0, rad=0):
        rat = Fraction(rat)
        irr = Fraction(irr)
        rad = int(rad)
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
        elif not _is_square_free(rad):
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
        if isinstance(value, (int, Fraction)):
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

    @property
    def is_rational(self) -> bool:
        return not self.irr

    def is_zero(self) -> bool:
        return not (self.rat or self.irr)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.rad or other.rad):
            return Scalar._new(self.rat + other.rat, _FRACTION_ZERO, 0)
        rad = self._common_rad(other)
        return Scalar._new(self.rat + other.rat, self.irr + other.irr, rad)

    __radd__ = __add__

    def __neg__(self):
        return Scalar._new(-self.rat, -self.irr, self.rad)

    def __sub__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.rad or other.rad):
            return Scalar._new(self.rat - other.rat, _FRACTION_ZERO, 0)
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
        if not (self.rad or other.rad):
            return Scalar._new(self.rat * other.rat, _FRACTION_ZERO, 0)
        rad = self._common_rad(other)
        rat = self.rat * other.rat + rad * self.irr * other.irr
        irr = self.rat * other.irr + self.irr * other.rat
        return Scalar._new(rat, irr, rad)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        if not self.irr:
            return Scalar._new(1 / self.rat, _FRACTION_ZERO, 0)
        # 1/(a+b*sqrt(d)) = (a-b*sqrt(d))/(a^2-d*b^2); the norm is nonzero
        # because sqrt(d) is irrational for square-free d > 1.
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
            return self.inverse() ** (-exponent)
        result = ONE
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

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

    def __le__(self, other):
        other = Scalar._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() <= 0

    def __gt__(self, other):
        return Scalar._coerce(other) < self

    def __ge__(self, other):
        return Scalar._coerce(other) <= self

    # -- misc --------------------------------------------------------------

    def __repr__(self):
        if self.irr == 0:
            return "Scalar(%s)" % self.rat
        return "Scalar(%s, %s, rad=%d)" % (self.rat, self.irr, self.rad)


# Slot setters that bypass the immutability guard, for ``Scalar._new``.
_set_rat = Scalar.rat.__set__
_set_irr = Scalar.irr.__set__
_set_rad = Scalar.rad.__set__

ZERO = Scalar(0)
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


def scalar_sqrt(value: Scalar) -> Scalar:
    """Exact nonnegative square root of a nonnegative scalar.

    Raises :class:`NotRepresentableError` if no square root exists within
    a single quadratic extension (use of a second radicand is never
    attempted when the input already carries one).
    """
    if value.sign() < 0:
        raise NotRepresentableError("square root of a negative value")
    if value.is_zero():
        return ZERO
    if value.irr == 0:
        r = rational_sqrt(value.rat)
        if r is not None:
            return Scalar(r)
        # sqrt(num/den) = sqrt(num*den)/den = (f/den)*sqrt(m)
        f, m = square_free_split(value.rat.numerator * value.rat.denominator)
        return Scalar(0, Fraction(f, value.rat.denominator), m)
    # (u + v*sqrt(d))^2 = value requires u^2 = (rat +- r)/2 with
    # r = sqrt(rat^2 - d*irr^2) rational.
    norm = value.rat * value.rat - value.rad * value.irr * value.irr
    if norm >= 0:
        r = rational_sqrt(norm)
        if r is not None:
            for branch in (r, -r):
                usq = (value.rat + branch) / 2
                if usq <= 0:
                    continue
                u = rational_sqrt(usq)
                if u is None or u == 0:
                    continue
                v = value.irr / (2 * u)
                cand = Scalar(u, v, value.rad)
                if cand * cand == value:
                    return cand if cand.sign() > 0 else -cand
    raise NotRepresentableError(
        "no exact square root in Q(sqrt(%d))" % value.rad
    )
