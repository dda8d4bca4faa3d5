"""Exact sparse multivariate polynomials over quadratic-field scalars.

A polynomial over ``nvars`` variables is a mapping from exponent tuples to
nonzero :class:`~linnij.exactfield.Scalar` coefficients.  The zero polynomial
is the empty mapping.  All monomial comparisons use one global order,
graded lexicographic with ``x1 > x2 > ...``: total degree first, ties by
tuple comparison of the exponent vectors.

Instances are treated as immutable; every operation returns a new object.
The degree of the zero polynomial is the marker :data:`MINUS_INFINITY`,
which compares below every integer.

Validation happens once, in the public constructor ``Poly(nvars, terms)``:
every exponent tuple must have ``nvars`` nonnegative entries, and zero
coefficients are dropped.  Results of ring operations are built from terms
the ring produced itself, through the private ``Poly._new``, and are not
checked again.

Two private kernels add terms into a coefficient dict, dropping every sum that
cancels: ``_add_terms`` (``+``, ``-``, :meth:`Poly.substitute`, the parser's
sums) and ``_add_products`` (``*``, :func:`dot`, :func:`exact_divide`, the
parser's bracketed terms).  :func:`dot`, the sum of the pairwise products of
two rows with zero factors skipped, is the one sum-of-products routine: matrix
products, the characteristic polynomial, the torsion, coordinate changes,
linear forms and :meth:`Poly.substitute_linear` are built on it.

:func:`powers_of` is the one power table of a value, and :func:`value_at`
the one evaluation against such tables: :meth:`Poly.evaluate`, the
solution check and :meth:`~linnij.polymatrix.PolyMatrix.at` call it.
:func:`top_exponents` is the one scan for how far such tables must reach.

The term dict ``Poly.terms`` is read here and by the parser in
:mod:`linnij.textio` only; other modules use :func:`top_exponents`,
:meth:`Poly.linear_coefficients` and :meth:`Poly.involves`.
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping, Sequence

from .errors import DimensionMismatchError
from .exactfield import ONE, ZERO, Scalar, power
from .record import Record

MINUS_INFINITY = float("-inf")

_new_object = object.__new__

Exponents = tuple[int, ...]


def grlex_key(exponents: Exponents) -> tuple:
    return (sum(exponents), exponents)


class Poly:
    """A sparse polynomial with exact coefficients."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Scalar] | None = None):
        cleaned: dict[Exponents, Scalar] = {}
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise DimensionMismatchError(
                        "exponent tuple %r does not have %d entries" % (exps, nvars)
                    )
                if any(e < 0 for e in exps):
                    raise ValueError("negative exponent in %r" % (exps,))
                if not coeff.is_zero():
                    cleaned[tuple(exps)] = coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", cleaned)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _new(nvars: int, terms: dict[Exponents, Scalar]) -> "Poly":
        """Trusted constructor: ``terms`` is taken as is, and must map
        ``nvars``-entry tuples of nonnegative ints to nonzero scalars."""
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
        c = value if isinstance(value, Scalar) else Scalar(value)
        return Poly(nvars, {(0,) * nvars: c})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise DimensionMismatchError("variable index %d out of range" % index)
        exps = (0,) * index + (1,) + (0,) * (nvars - index - 1)
        return Poly._new(nvars, {exps: ONE})

    @staticmethod
    def monomial(nvars: int, exponents: Iterable[int], coeff) -> "Poly":
        c = coeff if isinstance(coeff, Scalar) else Scalar(coeff)
        return Poly(nvars, {tuple(exponents): c})

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
        return exps, self.terms[exps]

    def coefficient(self, exponents: Iterable[int]) -> Scalar:
        return self.terms.get(tuple(exponents), ZERO)

    def linear_coefficients(self) -> list[Scalar] | None:
        """The coefficient of each variable, when the polynomial is
        homogeneous of degree one (or zero); else None."""
        coeffs = [ZERO] * self.nvars
        for exps, coeff in self.terms.items():
            if sum(exps) != 1:
                return None
            coeffs[exps.index(1)] = coeff
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
        return next(iter(self.terms.values()))

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in descending graded lex order (leading first)."""
        return sorted(self.terms.items(), key=lambda t: grlex_key(t[0]), reverse=True)

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
        c = factor if isinstance(factor, Scalar) else Scalar(factor)
        if c.is_zero():
            return Poly.zero(self.nvars)
        # a field has no zero divisors, so no product vanishes
        return Poly._new(self.nvars, {e: v * c for e, v in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Scalar)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        return Poly._new(self.nvars, _add_products({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, exponent, Poly.constant(self.nvars, ONE))

    def __eq__(self, other):
        if isinstance(other, int):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus and substitution -----------------------------------------

    def partial(self, index: int) -> "Poly":
        """Partial derivative with respect to variable ``index``."""
        if not 0 <= index < self.nvars:
            raise DimensionMismatchError("variable index %d out of range" % index)
        acc: dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            e = exps[index]
            if e == 0:
                continue
            # lowering one exponent maps distinct monomials to distinct ones,
            # and coeff * e is nonzero for e >= 1
            lowered = exps[:index] + (e - 1,) + exps[index + 1 :]
            acc[lowered] = coeff * e
        return Poly._new(self.nvars, acc)

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
            monomial = Poly.constant(ncols, ONE)
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
        exponent it carries.
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
                images.append((tuple(new_exps), coeff))
        return Poly._new(self.nvars, _add_terms({}, images))

    def evaluate(self, point: list[Scalar]) -> Scalar:
        """The value at a point: every variable substituted."""
        if len(point) != self.nvars:
            raise DimensionMismatchError("point has wrong length")
        top = top_exponents(self.nvars, (self,))
        return value_at(self, [powers_of(v, e) for v, e in zip(point, top)])

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
        groups: dict[Exponents, dict[Exponents, Scalar]] = {}
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
            if coeff.rad:
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
    if isinstance(other, (int, Scalar)):
        other = Poly.constant(p.nvars, other)
    if not isinstance(other, Poly):
        return NotImplemented
    p._check_compatible(other)
    return Poly._new(p.nvars, _add_terms(dict(p.terms), other.terms.items(), subtract))


def _add_terms(acc: dict, terms, subtract: bool = False) -> dict:
    """Add (exponents, nonzero coefficient) pairs into the term dict ``acc``,
    or subtract them when ``subtract``, and return it; a sum that cancels is
    dropped."""
    for exps, coeff in terms:
        cur = acc.get(exps)
        if cur is None:
            acc[exps] = -coeff if subtract else coeff
        elif (total := cur - coeff if subtract else cur + coeff).is_zero():
            del acc[exps]
        else:
            acc[exps] = total
    return acc


def _add_products(acc: dict, left: dict, right: dict) -> dict:
    """Add every product of a term of ``left`` and a term of ``right`` (term
    dicts with nonzero coefficients, so no product vanishes in a field) into
    the term dict ``acc``, and return it; a sum that cancels is dropped."""
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            exps = tuple(map(operator.add, e1, e2))
            prod = c1 * c2
            cur = acc.get(exps)
            if cur is None:
                acc[exps] = prod
            elif (total := cur + prod).is_zero():
                del acc[exps]
            else:
                acc[exps] = total
    return acc


def top_exponents(nvars: int, polys: Iterable[Poly]) -> list[int]:
    """The highest exponent of each of ``nvars`` variables over ``polys``:
    how far a :func:`powers_of` table must reach for :func:`value_at`."""
    exps = [e for p in polys for e in p.terms]
    return [max(column) for column in zip((0,) * nvars, *exps)]


def powers_of(value: Scalar, top: int) -> list[Scalar] | None:
    """``[1, value, ..., value**top]``, or None when ``value`` is zero."""
    row = [ONE]
    for _ in range(top):
        row.append(row[-1] * value)
    return row if value else None


def value_at(p: Poly, powers) -> Scalar:
    """The value of ``p`` at the point whose power table is ``powers``.

    ``powers[i]`` is :func:`powers_of` of the value of variable i, up to at
    least the highest exponent of that variable in ``p``: None when the
    value is zero, so every term it divides vanishes.  One table serves
    every polynomial evaluated at the same point.
    """
    total = ZERO
    for exps, coeff in p.terms.items():
        for row, e in zip(powers, exps):
            if e:
                if row is None:
                    break
                coeff = coeff * row[e]
        else:
            total = total + coeff
    return total


def dot(left, right, zero):
    """Sum of the pairwise products of two rows, skipping falsy factors.

    The rows may hold :class:`Poly` values, :class:`Scalar` values or a mix
    of both; ``zero`` is the sum when every product is skipped.
    """
    if not isinstance(zero, Poly):
        return sum((p * q for p, q in zip(left, right) if p and q), zero)
    terms: dict[Exponents, Scalar] = {}
    for p, q in zip(left, right):
        if p and q:
            _add_products(terms, _terms_in(p, zero), _terms_in(q, zero))
    return Poly._new(zero.nvars, terms)


def _terms_in(factor, zero: Poly) -> dict:
    """The term dict of a :func:`dot` factor; a scalar is a constant term."""
    if isinstance(factor, Poly):
        zero._check_compatible(factor)
        return factor.terms
    return {(0,) * zero.nvars: factor}


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
    lead_exps, lead_coeff = q.leading()
    # leading terms fall strictly, so no quotient term repeats
    quotient: dict[Exponents, Scalar] = {}
    remainder = dict(p.terms)
    while remainder:
        exps = max(remainder, key=grlex_key)
        diff = tuple(a - b for a, b in zip(exps, lead_exps))
        if any(d < 0 for d in diff):
            return DivisibilityFailure(Poly._new(p.nvars, remainder))
        coeff = remainder[exps] / lead_coeff
        quotient[diff] = coeff
        _add_products(remainder, {diff: -coeff}, q.terms)
    return Poly._new(p.nvars, quotient)
