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
"""

from __future__ import annotations

import operator
from typing import Iterable, Mapping

from .errors import DimensionMismatchError
from .exactfield import ONE, ZERO, Scalar

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
        exps = tuple(1 if i == index else 0 for i in range(nvars))
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
        if isinstance(other, (int, Scalar)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        for exps, coeff in other.terms.items():
            cur = acc.get(exps)
            total = coeff if cur is None else cur + coeff
            if total.is_zero():
                acc.pop(exps, None)
            else:
                acc[exps] = total
        return Poly._new(self.nvars, acc)

    __radd__ = __add__

    def __neg__(self):
        return Poly._new(self.nvars, {e: -v for e, v in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Scalar)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

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
        acc: dict[Exponents, Scalar] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exps = tuple(map(operator.add, e1, e2))
                prod = c1 * c2
                cur = acc.get(exps)
                total = prod if cur is None else cur + prod
                if total.is_zero():
                    acc.pop(exps, None)
                else:
                    acc[exps] = total
        return Poly._new(self.nvars, acc)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = Poly.constant(self.nvars, ONE)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base_needed = exponent >> 1
            if base_needed:
                base = base * base
            exponent = base_needed
        return result

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
        images = []
        for row in matrix:
            if len(row) != ncols:
                raise DimensionMismatchError("ragged substitution matrix")
            img = Poly(ncols, {})
            for j, c in enumerate(row):
                if not c.is_zero():
                    img = img + Poly.variable(ncols, j).scale(c)
            images.append(img)
        powers: list[dict[int, Poly]] = [dict() for _ in range(self.nvars)]
        result = Poly.zero(ncols)
        for exps, coeff in self.terms.items():
            term = Poly.constant(ncols, coeff)
            for i, e in enumerate(exps):
                if e == 0:
                    continue
                cache = powers[i]
                if e not in cache:
                    cache[e] = images[i] ** e
                term = term * cache[e]
            result = result + term
        return result

    def substitute(self, values: Mapping[int, Scalar]) -> "Poly":
        """Evaluate some variables at scalar values (others stay symbolic)."""
        for i in values:
            if not 0 <= i < self.nvars:
                raise DimensionMismatchError("variable index %d out of range" % i)
        acc: dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            c = coeff
            new_exps = list(exps)
            for i, val in values.items():
                e = exps[i]
                if e:
                    c = c * (val**e)
                    new_exps[i] = 0
            if c.is_zero():
                continue
            key = tuple(new_exps)
            total = acc.get(key, ZERO) + c
            if total.is_zero():
                acc.pop(key, None)
            else:
                acc[key] = total
        return Poly._new(self.nvars, acc)

    def evaluate(self, point: list[Scalar]) -> Scalar:
        """The value at a point, with each coordinate's powers built once."""
        if len(point) != self.nvars:
            raise DimensionMismatchError("point has wrong length")
        if not self.terms:
            return ZERO
        top = [max(column) for column in zip(*self.terms)]
        powers = []
        for value, k in zip(point, top):
            row = [ONE]
            for _ in range(k):
                row.append(row[-1] * value)
            powers.append(row)
        total = ZERO
        for exps, coeff in self.terms.items():
            for row, e in zip(powers, exps):
                if e:
                    coeff = coeff * row[e]
            total = total + coeff
        return total

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


class DivisibilityFailure:
    """Marker for a failed exact division, carrying the offending remainder."""

    __slots__ = ("remainder",)

    def __init__(self, remainder: Poly):
        self.remainder = remainder

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
    quotient = Poly.zero(p.nvars)
    remainder = p
    while not remainder.is_zero():
        exps, coeff = remainder.leading()
        diff = tuple(a - b for a, b in zip(exps, lead_exps))
        if any(d < 0 for d in diff):
            return DivisibilityFailure(remainder)
        t = Poly.monomial(p.nvars, diff, coeff / lead_coeff)
        quotient = quotient + t
        remainder = remainder - t * q
    return quotient
