"""Exact sparse multivariate polynomials over quadratic-field scalars.

A polynomial over ``nvars`` variables is a mapping from exponent tuples to
nonzero coefficients.  The zero polynomial is the empty mapping.  All
monomial comparisons use one global order, graded lexicographic with
``x1 > x2 > ...``: total degree first, ties by tuple comparison of the
exponent vectors.

Each coefficient is held in its narrowest exact type: an ``int`` when it is
integral, a :class:`~fractions.Fraction` when it is rational, and a
:class:`~linnij.exactfield.Scalar` only when its irrational part is nonzero,
so rational arithmetic, nearly all of it, runs on Python's own numbers.  The
readers (:meth:`Poly.coefficient`, :meth:`Poly.leading`,
:meth:`Poly.sorted_terms`, :meth:`Poly.constant_value`,
:meth:`Poly.linear_terms`, :meth:`Poly.linear_coefficients`,
:meth:`Poly.evaluate`) return ``Scalar``.  The evaluation itself,
``_value_at``, returns the narrow value, which
:meth:`~linnij.polymatrix.PolyMatrix.at` yields.

Instances are treated as immutable; every operation returns a new object.
The degree of the zero polynomial is the marker :data:`MINUS_INFINITY`,
which compares below every integer.

Validation happens once, in the public constructor ``Poly(nvars, terms)``:
every exponent tuple must have ``nvars`` nonnegative entries, every
coefficient must be an ``int``, a ``Fraction`` or a ``Scalar`` (anything
else, a float included, is a ``TypeError``) and is narrowed, and zero
coefficients are dropped.  The same holds for ``Poly.constant``,
``Poly.monomial`` and ``Poly.scale``.  Results of ring operations are built
from terms the ring produced itself, through the private ``Poly._new``, and
are not checked again.

Two private kernels add terms into a coefficient dict, narrowing every
result and dropping every sum that cancels: ``_add_terms`` (``+``, ``-``,
:meth:`Poly.substitute`, the parser's sums) and ``_add_products`` (``*``,
:func:`dot`, :func:`exact_divide`, the parser's bracketed terms).
``_reciprocal`` is the one exact inverse of a coefficient, never
``int / int``: :func:`exact_divide` and the scalar elimination of
:mod:`linnij.polymatrix` divide through it.  :func:`dot`, the sum of the
pairwise products of two rows with zero factors skipped, is the one
sum-of-products routine, with ``_dot_at`` its form for two rows of one
ring summed over given positions only: matrix products, the
characteristic polynomial, the torsion, coordinate changes, linear forms
and :meth:`Poly.substitute_linear` are built on them.

:meth:`Poly.gradient` is the one derivative kernel: :meth:`Poly.partial`,
:func:`~linnij.polymatrix.jacobian` and the torsion read it.

``_value_at`` is the one evaluation kernel, behind :meth:`Poly.evaluate`,
:meth:`~linnij.polymatrix.PolyMatrix.at` and the solution check.  It runs
in integers: ``_power_table`` puts the values of a point over one common
denominator L and holds the powers of each ``L*v`` as ``int``, or, for an
irrational v, as a pair of ``int`` for ``a + b*sqrt(d)``.  The kernel
walks only each term's nonzero exponents, sums the rational and the
``sqrt(d)`` parts as two ints scaled to the polynomial's own degree, and
divides once.  At an integer point, at a point with two radicands, and at
a point where L would inflate the powers of some value far past their own
size, the table holds the narrow powers :func:`powers_of` builds instead,
and the kernel multiplies each coefficient by its term's entries in index
order and sums the terms in turn, in the narrow types; a coefficient of
another radicand than the point's sends the sum there too.  So
:class:`~linnij.errors.RadicandMismatchError` is raised exactly where a
narrow product or sum meets two radicands.
:func:`top_exponents` is the one scan for how far such tables must reach,
and :func:`powers_of` the narrow power rows of such tables and of
:meth:`Poly.substitute`.

The term dict ``Poly.terms`` is read here and by the parser in
:mod:`linnij.textio` only; other modules use :func:`top_exponents`,
:meth:`Poly.gradient`, :meth:`Poly.linear_terms` (and its dense form
:meth:`Poly.linear_coefficients`) and :meth:`Poly.involves`.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import compress
from math import lcm
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatchError
from .exactfield import ZERO, Scalar, power
from .record import Record

MINUS_INFINITY = float("-inf")

_new_object = object.__new__

Exponents = tuple[int, ...]
Coefficient = int | Fraction | Scalar
_EXACT = (int, Fraction, Scalar)


def grlex_key(exponents: Exponents) -> tuple:
    return (sum(exponents), exponents)


class Poly:
    """A sparse polynomial with exact coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Coefficient] | None = None):
        cleaned: dict[Exponents, Coefficient] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise DimensionMismatchError(
                        "exponent tuple %r does not have %d entries" % (exps, nvars)
                    )
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in %r" % (exps,))
                coeff = _exact(coeff)
                if coeff:
                    cleaned[tuple(exps)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _new(nvars: int, terms: dict[Exponents, Coefficient]) -> "Poly":
        """Trusted constructor: ``terms`` is taken as is, and must map
        ``nvars``-entry tuples of nonnegative ints to nonzero coefficients
        in their narrowest type."""
        out = _new_object(Poly)
        _set_nvars(out, nvars)
        _set_terms(out, terms)
        return out

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        return Poly(nvars, {(0,) * nvars: value})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise DimensionMismatchError("variable index %d out of range" % index)
        exps = (0,) * index + (1,) + (0,) * (nvars - index - 1)
        return Poly._new(nvars, {exps: 1})

    @staticmethod
    def monomial(nvars: int, exponents: Iterable[int], coeff) -> "Poly":
        return Poly(nvars, {tuple(exponents): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        if not self.terms:
            return MINUS_INFINITY
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, k: int) -> bool:
        return all(sum(e) == k for e in self.terms)

    def is_homogeneous_in(self, k: int, indices: Iterable[int]) -> bool:
        idx = tuple(indices)
        return all(sum(e[i] for i in idx) == k for e in self.terms)

    def leading(self) -> tuple[Exponents, Scalar]:
        """Leading (exponents, coefficient) in graded lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exps = max(self.terms, key=grlex_key)
        return exps, Scalar._coerce(self.terms[exps])

    def coefficient(self, exponents: Iterable[int]) -> Scalar:
        return Scalar._coerce(self.terms.get(tuple(exponents), 0))

    def linear_terms(self) -> dict[int, Scalar] | None:
        """The nonzero coefficient of each variable as ``{index: Scalar}``,
        when the polynomial is homogeneous of degree one (or zero); else
        None."""
        coeffs = {}
        for exps, coeff in self.terms.items():
            if sum(exps) != 1:
                return None
            coeffs[exps.index(1)] = Scalar._coerce(coeff)
        return coeffs

    def linear_coefficients(self) -> list[Scalar] | None:
        """The coefficient of each variable, zeros included, when the
        polynomial is homogeneous of degree one (or zero); else None."""
        terms = self.linear_terms()
        if terms is None:
            return None
        coeffs = [ZERO] * self.nvars
        for i, coeff in terms.items():
            coeffs[i] = coeff
        return coeffs

    def involves(self, indices: Sequence[int]) -> bool:
        """True when some term has a positive exponent at one of
        ``indices``, which is iterated once per term."""
        return any(exps[i] for exps in self.terms for i in indices)

    def constant_value(self) -> Scalar:
        """The value of a degree-<=0 polynomial as a scalar."""
        if not self.terms:
            return ZERO
        if self.degree() > 0:
            raise ValueError("polynomial is not constant")
        return Scalar._coerce(next(iter(self.terms.values())))

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in descending graded lex order (leading first)."""
        return [(exps, Scalar._coerce(self.terms[exps]))
                for exps in sorted(self.terms, key=grlex_key, reverse=True)]

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other: "Poly"):
        if self.nvars != other.nvars:
            raise DimensionMismatchError(
                "polynomials over %d and %d variables" % (self.nvars, other.nvars)
            )

    def __add__(self, other):
        return _accumulate(self, other, False)

    __radd__ = __add__

    def __neg__(self):
        return Poly._new(self.nvars, {e: -v for e, v in self.terms.items()})

    def __sub__(self, other):
        return _accumulate(self, other, True)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor) -> "Poly":
        c = _exact(factor)
        if not c:
            return Poly.zero(self.nvars)
        # a field has no zero divisors, so no product vanishes
        return Poly._new(self.nvars, {e: _narrow(v * c) for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, _EXACT):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        return Poly._new(self.nvars, _add_products({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, exponent, Poly.constant(self.nvars, 1))

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus and substitution -----------------------------------------

    def gradient(self, indices: Iterable[int] | None = None) -> dict[int, "Poly"]:
        """The nonzero partial derivatives as ``{index: partial}``, in
        ascending index order, from one pass over the terms: by every
        variable, or only by those in ``indices``."""
        nvars = self.nvars
        wanted = None
        if indices is not None:
            wanted = frozenset(indices)
            for i in wanted:
                if not 0 <= i < nvars:
                    raise DimensionMismatchError("variable index %d out of range" % i)
        every = range(nvars)
        acc: dict[int, dict[Exponents, Coefficient]] = {}
        for exps, coeff in self.terms.items():
            for i in compress(every, exps):
                if wanted is not None and i not in wanted:
                    continue
                e = exps[i]
                # lowering one exponent maps distinct monomials to distinct
                # ones, and coeff * e is nonzero for e >= 1
                lowered = exps[:i] + (e - 1,) + exps[i + 1 :]
                c = coeff if e == 1 else _narrow(coeff * e)
                acc.setdefault(i, {})[lowered] = c
        return {i: Poly._new(nvars, acc[i]) for i in sorted(acc)}

    def partial(self, index: int) -> "Poly":
        """Partial derivative with respect to variable ``index``."""
        return self.gradient((index,)).get(index) or Poly.zero(self.nvars)

    def substitute_linear(self, matrix: list[list[Scalar]]) -> "Poly":
        """Replace each variable x_i by sum_j matrix[i][j] * y_j.

        ``matrix`` must have ``nvars`` rows; the number of columns sets the
        variable count of the result.
        """
        if len(matrix) != self.nvars:
            raise DimensionMismatchError(
                "substitution matrix needs %d rows" % self.nvars
            )
        ncols = len(matrix[0]) if matrix else 0
        if any(len(row) != ncols for row in matrix):
            raise DimensionMismatchError("ragged substitution matrix")
        ys = [Poly.variable(ncols, j) for j in range(ncols)]
        zero = Poly.zero(ncols)
        images = [dot(row, ys, zero) for row in matrix]
        powers: dict[tuple[int, int], Poly] = {}
        monomials = []
        for exps in self.terms:
            monomial = Poly.constant(ncols, 1)
            for i, e in enumerate(exps):
                if e:
                    if (i, e) not in powers:
                        powers[i, e] = images[i] ** e
                    monomial = monomial * powers[i, e]
            monomials.append(monomial)
        return dot(self.terms.values(), monomials, zero)

    def substitute(self, values: Mapping[int, Scalar]) -> "Poly":
        """Evaluate some variables at scalar values (others stay symbolic).

        Each substituted variable's powers are built once, up to the highest
        exponent it carries, and every image coefficient is narrowed.
        """
        for i in values:
            if not 0 <= i < self.nvars:
                raise DimensionMismatchError("variable index %d out of range" % i)
        top = top_exponents(self.nvars, (self,))
        powers = [(i, powers_of(value, top[i])) for i, value in values.items()]
        images = []
        for exps, coeff in self.terms.items():
            new_exps = list(exps)
            for i, row in powers:
                e = exps[i]
                if e:
                    if row is None:
                        break
                    coeff = coeff * row[e]
                    new_exps[i] = 0
            else:
                images.append((tuple(new_exps), _narrow(coeff)))
        return Poly._new(self.nvars, _add_terms({}, images))

    def evaluate(self, point: list[Scalar]) -> Scalar:
        """The value at a point: every variable substituted."""
        if len(point) != self.nvars:
            raise DimensionMismatchError("point has wrong length")
        table = _power_table(point, top_exponents(self.nvars, (self,)))
        return Scalar._coerce(_value_at(self, table))

    def embed(self, nvars: int, offset: int = 0) -> "Poly":
        """View the polynomial inside a larger ring, variables shifted by offset."""
        if offset < 0 or offset + self.nvars > nvars:
            raise DimensionMismatchError("embedding does not fit")
        tail = nvars - offset - self.nvars
        return Poly._new(
            nvars,
            {
                (0,) * offset + exps + (0,) * tail: coeff
                for exps, coeff in self.terms.items()
            },
        )

    def group_by(self, indices: Iterable[int]) -> dict[Exponents, "Poly"]:
        """Split into coefficient polynomials of the monomials in ``indices``.

        Returns a map from the restricted exponent tuple (one entry per
        requested index) to the polynomial of the remaining variables, kept
        in the full ring with zeroed exponents at the grouped positions.
        """
        idx = tuple(indices)
        groups: dict[Exponents, dict[Exponents, Coefficient]] = {}
        for exps, coeff in self.terms.items():
            key = tuple(exps[i] for i in idx)
            rest = list(exps)
            for i in idx:
                rest[i] = 0
            groups.setdefault(key, {})[tuple(rest)] = coeff
        return {k: Poly._new(self.nvars, v) for k, v in groups.items()}

    def radicand(self) -> int:
        """The common nonzero radicand of the coefficients (0 if all rational)."""
        for coeff in self.terms.values():
            if type(coeff) is Scalar:
                return coeff.rad
        return 0

    def __repr__(self):
        from .textio import format_poly

        return "Poly(%d, %s)" % (self.nvars, format_poly(self))


# Slot setters that bypass the immutability guard, for ``Poly._new``.
_set_nvars = Poly.nvars.__set__
_set_terms = Poly.terms.__set__


def _accumulate(p: Poly, other, subtract: bool):
    """p + other, or p - other when ``subtract``, in one pass over other."""
    if not isinstance(other, Poly):
        if not isinstance(other, _EXACT):
            return NotImplemented
        other = Poly.constant(p.nvars, other)
    p._check_compatible(other)
    return Poly._new(p.nvars, _add_terms(dict(p.terms), other.terms.items(), subtract))


def _narrow(value):
    """A coefficient in its narrowest exact type: the ``int`` or ``Fraction``
    of a rational value (an ``int`` is its own numerator over 1), or the
    ``Scalar`` itself when its irrational part is nonzero."""
    if type(value) is Scalar:
        if value.irr:
            return value
        value = value.rat
    return value.numerator if value.denominator == 1 else value


def _reciprocal(value):
    """The exact inverse of a nonzero narrow coefficient, narrowed: an
    ``int`` through ``Fraction(1, value)``, as ``int / int`` would be a
    float, a ``Fraction`` through ``1 / value``, and a ``Scalar`` through
    :meth:`~linnij.exactfield.Scalar.inverse`."""
    kind = type(value)
    if kind is int:
        inverse = Fraction(1, value)
    elif kind is Fraction:
        inverse = 1 / value
    else:
        inverse = value.inverse()
    return _narrow(inverse)


def _exact(value):
    """The narrowest form of a coefficient handed to a public entry point;
    TypeError unless it is an int, a Fraction or a Scalar."""
    if not isinstance(value, _EXACT):
        raise TypeError("coefficient %r is not an int, a Fraction or a Scalar"
                        % (value,))
    return _narrow(value)


def _add_terms(acc: dict, terms, subtract: bool = False) -> dict:
    """Add (exponents, nonzero narrow coefficient) pairs into the term dict
    ``acc``, or subtract them when ``subtract``, and return it; a sum that
    cancels is dropped, and every other sum is narrowed."""
    for exps, coeff in terms:
        cur = acc.get(exps)
        if cur is None:
            acc[exps] = -coeff if subtract else coeff
            continue
        total = cur - coeff if subtract else cur + coeff
        if type(total) is not int:
            total = _narrow(total)
        if total:
            acc[exps] = total
        else:
            del acc[exps]
    return acc


def _add_products(acc: dict, left: dict, right: dict) -> dict:
    """Add every product of a term of ``left`` and a term of ``right`` (term
    dicts with nonzero narrow coefficients, so no product vanishes in a
    field) into the term dict ``acc``, and return it; a sum that cancels is
    dropped.  Products and sums are narrowed: two fractions can multiply or
    add to an integer, and two irrational scalars to a rational."""
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            exps = tuple(map(operator.add, e1, e2))
            prod = c1 * c2
            if type(prod) is not int:
                prod = _narrow(prod)
            cur = acc.get(exps)
            if cur is None:
                acc[exps] = prod
                continue
            total = cur + prod
            if type(total) is not int:
                total = _narrow(total)
            if total:
                acc[exps] = total
            else:
                del acc[exps]
    return acc


def top_exponents(nvars: int, polys: Iterable[Poly]) -> list[int]:
    """The highest exponent of each of ``nvars`` variables over ``polys``:
    how far a :func:`_power_table` must reach for :func:`_value_at`."""
    exps = set()
    for p in polys:
        # a term dict hands its keys' hashes over, so repeats cost little
        exps.update(p.terms)
    return [max(column) for column in zip((0,) * nvars, *exps)]


def powers_of(value: Scalar, top: int) -> list[Coefficient] | None:
    """``[1, value, ..., value**top]`` in the ring's narrow coefficient
    types, or None when ``value`` is zero: the narrow rows of a
    :func:`_power_table`, and the power rows of :meth:`Poly.substitute`,
    whose images keep those types."""
    value = _exact(value)
    row = [1]
    for _ in range(top):
        row.append(_narrow(row[-1] * value))
    return row if value else None


def _power_table(point: Sequence, top: Sequence[int]) -> tuple:
    """The power table of ``point`` for :func:`_value_at`, reaching
    ``top[i]`` for variable i: the plain tuple ``(rows, scale, rad,
    values)``, as one is built per point and unpacked per evaluation.
    Every value must be an ``int``, a ``Fraction`` or a ``Scalar``
    (``TypeError`` otherwise); ``values`` holds them narrowed.  ``rows[i]``
    is None when value i is zero or ``top[i]`` is 0: a zero value makes
    every term it divides vanish, and no term reads the row of a variable
    of exponent 0.

    scale is a common denominator L of the rational and irrational parts
    of the values with ``top[i] > 0``, and rad the one radicand d of the
    irrational ones among them, 0 when there is none.  rows[i] lists
    ``(L*v)**e`` for e = 0..top[i]: an int when v is rational, an ``(a,
    b)`` pair of ints for ``a + b*sqrt(d)`` when v is irrational.

    rad is None when the rows are narrow instead: ``v**e`` in the ring's
    narrow coefficient types, as :func:`powers_of` builds them.  They are
    narrow at an integer point (L = 1, no irrational value), where both
    kinds of row are the same ints; at a point with two radicands; and at a
    point where L is far longer than some value with ``top[i] > 0``
    (:func:`_scaling_inflates`), as one value with a long denominator would
    inflate every other value's scaled row.
    """
    values = [_exact(v) for v in point]
    scale = 1
    rads = set()
    for v, e in zip(values, top):
        if e and type(v) is not int:
            if type(v) is Scalar:
                scale = lcm(scale, v.rat.denominator, v.irr.denominator)
                rads.add(v.rad)
            else:
                scale = lcm(scale, v.denominator)
    if len(rads) > 1 or scale > 1 and _scaling_inflates(values, top, scale):
        return _narrow_rows(values, top), 1, None, values
    rows: list[list | None] = []
    for v, e in zip(values, top):
        if not (v and e):
            rows.append(None)
        elif type(v) is Scalar:
            d = v.rad
            a = v.rat.numerator * (scale // v.rat.denominator)
            b = v.irr.numerator * (scale // v.irr.denominator)
            x, y = 1, 0
            row = [(1, 0)]
            for _ in range(e):
                x, y = x * a + d * y * b, x * b + y * a
                row.append((x, y))
            rows.append(row)
        else:
            a = v * scale if type(v) is int else v.numerator * (scale // v.denominator)
            x = 1
            row = [1]
            for _ in range(e):
                x *= a
                row.append(x)
            rows.append(row)
    if rads:
        rad = rads.pop()
    else:
        # at an integer point the scaled rows are the narrow ones
        rad = None if scale == 1 else 0
    return rows, scale, rad, values


# the bits of L that _scaling_inflates forgives: an int of a machine word
# or two costs about as much as a one-digit one
_SCALE_SLACK = 64


def _scaling_inflates(values: Sequence, top: Sequence[int], scale: int) -> bool:
    """True when the common denominator ``scale`` has more bits than twice
    those of the numerators and denominators of some nonzero value with a
    positive top exponent, plus :data:`_SCALE_SLACK`.  Each power of such a
    value would grow by the bits of ``scale`` in a scaled row but by its own
    in a narrow one; below the bound a scaled row, and the powers of
    ``scale`` that bring a polynomial's terms to one degree, stay within a
    constant factor of the narrow rows' size."""
    limit = scale.bit_length() - _SCALE_SLACK
    for v, e in zip(values, top):
        if e and v:
            kind = type(v)
            if kind is int:
                bits = v.bit_length()
            elif kind is Fraction:
                bits = v.numerator.bit_length() + v.denominator.bit_length()
            else:
                bits = (v.rat.numerator.bit_length() + v.rat.denominator.bit_length()
                        + v.irr.numerator.bit_length() + v.irr.denominator.bit_length())
            if 2 * bits < limit:
                return True
    return False


def _narrow_rows(values: Sequence, top: Sequence[int]) -> list:
    """The narrow rows of a power table: :func:`powers_of` each value up to
    its top exponent, None when that is 0."""
    return [powers_of(v, e) if e else None for v, e in zip(values, top)]


def _value_at(p: Poly, table: tuple) -> Coefficient:
    """The value of ``p`` at the point of ``table`` (:func:`_power_table`),
    whose rows reach at least the highest exponent of each variable in
    ``p``: an ``int``, a ``Fraction``, or a ``Scalar`` with a nonzero
    irrational part.

    Over narrow rows each term is its coefficient times its variables'
    entries in index order, in the narrow types, and the terms are summed
    in turn; at an integer point, which comes with the narrow rings of
    sigma Jacobians, a test per exponent there costs less than ``compress``.
    Over scaled rows each term walks only its nonzero exponents, and its
    product of table entries is ``L**k`` times its value, for k the term's
    degree.  The sum is kept as ``L**deg`` times the sum so far, for deg
    the highest degree of a term so far: a term of lower degree is scaled
    up by ``L**(deg - k)``, and one of higher degree scales the sum up
    instead.  The terms sum as two ints, the rational and the ``sqrt(d)``
    part, and one division by ``L**deg`` ends the sum.  A coefficient
    multiplies its term's product last, so a ``Fraction`` costs one
    rational product per term.  A coefficient whose radicand is not the
    point's sends the whole sum to the narrow rows, where
    :class:`~linnij.errors.RadicandMismatchError` is raised, or not, as
    the narrow products and sums decide.
    """
    rows, scale, rad, values = table
    if rad is None:
        total = 0
        for exps, coeff in p.terms.items():
            for row, e in zip(rows, exps):
                if e:
                    if row is None:
                        break
                    coeff *= row[e]
            else:
                total += coeff
        return total if type(total) is int else _narrow(total)
    total_a = total_b = deg = 0
    for exps, coeff in p.terms.items():
        kind = type(coeff)
        if kind is Scalar and coeff.rad != rad:
            if rad:
                top = [len(row) - 1 if row else 0 for row in rows]
                return _value_at(p, (_narrow_rows(values, top), 1, None, values))
            # no value is irrational: this radicand is the only one so far
            rad = coeff.rad
        a, b, k = 1, 0, 0
        for row, e in compress(zip(rows, exps), exps):
            if row is None:
                break
            x = row[e]
            k += e
            if type(x) is int:
                a *= x
                b *= x
            else:
                x0, x1 = x
                a, b = a * x0 + rad * b * x1, a * x1 + b * x0
        else:
            if k < deg:
                m = scale ** (deg - k)
                a *= m
                b *= m
            elif k > deg:
                m = scale ** (k - deg)
                total_a *= m
                total_b *= m
                deg = k
            if kind is Scalar:
                r, i = coeff.rat, coeff.irr
                a, b = r * a + rad * i * b, r * b + i * a
            else:
                a *= coeff
                b *= coeff
            total_a += a
            total_b += b
    if not (total_a or total_b):
        return 0
    denominator = scale ** deg
    if total_b:
        return Scalar._new(Fraction(total_a, denominator),
                           Fraction(total_b, denominator), rad)
    return _narrow(Fraction(total_a, denominator))


# what a dot over scalar rows multiplies; Fraction, an ABC, is checked last
_FACTOR = (Scalar, int, Poly, Fraction)


def dot(left, right, zero):
    """Sum of the pairwise products of two rows, skipping zero factors.

    The rows may hold :class:`Poly` values, :class:`Scalar` values or a mix
    of both; ``zero`` is the sum when every product is skipped.  Every
    factor's type is checked before a zero one is skipped, so a float
    factor, zero or not, raises ``TypeError``.  When ``zero`` is a
    :class:`Poly`, every factor is read as a term dict, so a zero factor is
    an empty dict.
    """
    if not isinstance(zero, Poly):
        total = zero
        for p, q in zip(left, right):
            if not (isinstance(p, _FACTOR) and isinstance(q, _FACTOR)):
                raise TypeError("dot factors %r, %r are not each a Poly, an int, "
                                "a Fraction or a Scalar" % (p, q))
            if p and q:
                total = total + p * q
        return total
    nvars = zero.nvars
    terms: dict[Exponents, Coefficient] = {}
    for p, q in zip(left, right):
        # the usual factor, a Poly of the ring, is read without a call;
        # _terms_in checks and converts any other
        p = p.terms if type(p) is Poly and p.nvars == nvars else _terms_in(p, zero)
        q = q.terms if type(q) is Poly and q.nvars == nvars else _terms_in(q, zero)
        if p and q:
            _add_products(terms, p, q)
    return Poly._new(nvars, terms)


def _support(row: Sequence[Poly]) -> list[int]:
    """The positions of the nonzero polynomials in ``row``."""
    return [i for i, p in enumerate(row) if p.terms]


def _dot_at(left: Sequence[Poly], right: Sequence[Poly], indices: Iterable[int],
            nvars: int) -> Poly:
    """:func:`dot` of two rows of polynomials over the same ``nvars``
    variables, summed over the positions in ``indices`` only: a caller
    that knows where one row is zero passes its :func:`_support` and pays
    for its nonzero entries alone."""
    terms: dict[Exponents, Coefficient] = {}
    for i in indices:
        p, q = left[i].terms, right[i].terms
        if p and q:
            _add_products(terms, p, q)
    return Poly._new(nvars, terms)


def _terms_in(factor, zero: Poly) -> dict:
    """The term dict of a :func:`dot` factor: a scalar is a constant term,
    and a zero scalar the empty dict."""
    if isinstance(factor, Poly):
        zero._check_compatible(factor)
        return factor.terms
    factor = _exact(factor)
    return {(0,) * zero.nvars: factor} if factor else {}


class DivisibilityFailure(Record):
    """Marker for a failed exact division, carrying the offending remainder."""

    __slots__ = ("remainder",)

    def __repr__(self):
        return "DivisibilityFailure(%r)" % (self.remainder,)


def exact_divide(p: Poly, q: Poly) -> Poly | DivisibilityFailure:
    """Quotient p/q when q divides p exactly, else a failure marker.

    Reduction happens leading-term-first in the global graded lex order and
    gives up on the first leading term the divisor's leading term cannot
    reduce; the marker carries the remainder at that point.  When q divides
    p the loop always terminates with quotient*q == p.
    """
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    p._check_compatible(q)
    lead_exps = max(q.terms, key=grlex_key)
    inverse = _reciprocal(q.terms[lead_exps])
    # leading terms fall strictly, so no quotient term repeats
    quotient: dict[Exponents, Coefficient] = {}
    remainder = dict(p.terms)
    while remainder:
        exps = max(remainder, key=grlex_key)
        diff = tuple(a - b for a, b in zip(exps, lead_exps))
        if any(d < 0 for d in diff):
            return DivisibilityFailure(Poly._new(p.nvars, remainder))
        coeff = _narrow(remainder[exps] * inverse)
        quotient[diff] = coeff
        _add_products(remainder, {diff: -coeff}, q.terms)
    return Poly._new(p.nvars, quotient)
