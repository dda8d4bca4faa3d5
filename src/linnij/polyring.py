"""Exact sparse multivariate polynomials over quadratic-field scalars.

A polynomial over ``nvars`` variables is a mapping from monomials to
nonzero coefficients.  The zero polynomial is the empty mapping.  All
monomial comparisons use one global order, graded lexicographic with
``x1 > x2 > ...``: total degree first, ties by tuple comparison of the
exponent vectors.

A monomial is stored as one packed int, its key.  For a field width W and
exponents ``e0 .. e(n-1)`` of total degree ``deg`` the key is::

    deg << W*n | e0 << W*(n-1) | ... | e(n-1)

with variable 0 the most significant field below the degree.  Plain int
order of keys is then the graded lex order, a monomial product is one
int addition, and :func:`exact_divide` takes its leading term with a plain
``max``.  No field ever holds more than the degree, so the keys of a
polynomial whose degree is below ``2**W`` never carry from one field into
the next.  Each polynomial carries its own W from the ladder 8, 16, 32,
64, ...: the narrowest that holds its degree when it is built from
exponent tuples, and otherwise the width it was formed at, which a ring
operation takes from its operands and the parser from its terms.
The overflow rule: before a product is formed, its degree, the sum of its
factors' degrees, is checked against ``2**W``, and the one repacking helper
``_repack`` moves the factors, and the sum the product goes into, to a wider
W first (``_widened``).  A sum, a derivative, a substitution and a quotient
never raise the degree, so they only bring their operands to the wider of
their widths.  Exponents are Python ints, so any degree has a width.

``Poly.packed`` is the one stored term dict, from key to coefficient, and
``Poly.width`` its W.  :attr:`Poly.terms` is a read-only view of it keyed
by exponent tuples, built on demand for callers and tests that read
tuples.  ``_fields`` lists the nonzero exponents of a key by shift and
mask, in ascending index order, so the kernels that read exponents
(evaluation, derivatives, substitution, printing) walk only those.

Each coefficient is held in its narrowest exact type (see
:mod:`linnij.exactfield`), so rational arithmetic, nearly all of it, runs on
Python's own numbers, and every reader returns coefficients and values in
that type.

Instances are treated as immutable; every operation returns a new object.
The degree of the zero polynomial is the marker :data:`MINUS_INFINITY`,
which compares below every integer.

Validation happens once, in the public constructor ``Poly(nvars, terms)``:
every exponent tuple must have ``nvars`` entries, each a nonnegative
``int`` (``TypeError`` for any other type, ``bool`` and ``float``
included), every coefficient must be an ``int``, a ``Fraction`` or a
``Scalar`` (anything else, a float included, is a ``TypeError``) and is
narrowed, and zero coefficients are dropped.  The same holds for
``Poly.constant``, ``Poly.monomial`` and ``Poly.scale``.  Results of ring
operations are built from terms the ring produced itself, through the
private ``Poly._new``, and are not checked again.

Two private kernels add terms into a coefficient dict, narrowing every
result and dropping every sum that cancels: ``_add_terms`` (``+``, ``-``,
:meth:`Poly.substitute`, the parser's sums) and ``_add_products``
(``_dot_at``, :func:`exact_divide`, ``_torsion_rows``, the parser's
bracketed terms).  ``_reciprocal`` is the one exact inverse of a
coefficient, never ``int / int``: :func:`exact_divide`, the parser and the
normal forms of :mod:`linnij.reconstruct` divide through it.

``_dot_at``, the sum of the products of two rows of one ring over given
positions, zero factors skipped, is the one sum-of-products loop and the
one caller of ``_widened``: ``*``, :func:`dot` (which checks and converts
each factor first, and sums rows of scalars as scalars), matrix products,
the characteristic polynomial and coordinate changes run on it.
``_linear_form`` is the one builder of linear forms with scalar
coefficients, from ``(index, coefficient)`` pairs straight on the
variables' keys, so it pays for the nonzero coefficients only.  A linear
substitution goes through ``_substitute_linear``, which builds the images
of the variables, and each power of them a term asks for, once for all the
polynomials it is given: a matrix's entries share them.

``_derivative_terms`` is the one derivative kernel, behind
:meth:`Poly.gradient` (and so :meth:`Poly.partial` and
:func:`~linnij.polymatrix.jacobian`) and the torsion.  The torsion kernel
``_torsion_rows`` adds the products of nonzero terms straight into the
components they belong to, one operator row at a time, so it pays for the
operator's terms and not for its n^3 index slots.

``_value_at`` is the one evaluation kernel, behind :meth:`Poly.evaluate`,
:meth:`~linnij.polymatrix.PolyMatrix.at` and the solution check.  It runs
in integers: ``_power_table`` puts the values of a point over one common
denominator L and holds the powers of each ``L*v`` as ``int``, or, for an
irrational v, as a pair of ``int`` for ``a + b*sqrt(d)``.  The kernel
walks only each term's nonzero exponents, sums the rational and the
``sqrt(d)`` parts as two ints scaled to the polynomial's own degree, and
divides once.  At an integer point, at a point with two radicands, at a
point where L would inflate the powers of some value far past their own
size, and at one where a power of L could pass :data:`MAX_POWER_BITS`,
the table holds the narrow powers :func:`powers_of` builds instead,
and the kernel multiplies each coefficient by its term's entries in index
order and sums the terms in turn, in the narrow types; a coefficient of
another radicand than the point's sends the sum there too.  So
:class:`~linnij.errors.RadicandMismatchError` is raised exactly where a
narrow product or sum meets two radicands.
:func:`exponent_sets` is the one scan for the exponents each variable
takes, and a table holds entries at those exponents only, so its work
follows the exponents that occur and not the highest of them;
:func:`powers_of` builds the narrow power rows of such tables and of
:meth:`Poly.substitute`.  Every power of a value either builds passes
:func:`_check_power` first: one that could reach :data:`MAX_POWER_BITS`
bits is a :class:`~linnij.errors.FormatError`, never a hang.

A value's parts are read, and the kernel's result is built, through
:mod:`linnij.exactfield`: ``parts``, ``_integer_form`` and its inverse
``_from_integer_form``.

The packed dict is read here and by the parser and printer in
:mod:`linnij.textio` only; other modules use :func:`exponent_sets`,
:meth:`Poly.gradient`, :meth:`Poly.linear_terms` (and its dense form
:meth:`Poly.linear_coefficients`), :meth:`Poly.involves`,
``_torsion_rows`` and ``_linear_form``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DimensionMismatchError, FormatError
from .exactfield import (
    Scalar, _from_integer_form, _integer_form, _narrow, _size, parts, power)
from .record import Record

MINUS_INFINITY = float("-inf")

_new_object = object.__new__

Exponents = tuple[int, ...]
Coefficient = int | Fraction | Scalar
_EXACT = (int, Fraction, Scalar)

# the narrowest field width; every wider one doubles it
_MIN_WIDTH = 8


def grlex_key(exponents: Exponents) -> tuple:
    return (sum(exponents), exponents)


def _width_for(degree: int) -> int:
    """The narrowest width of the ladder 8, 16, 32, ... whose fields hold
    ``degree``."""
    width = _MIN_WIDTH
    while degree >> width:
        width *= 2
    return width


def _pack(exps: Exponents, width: int) -> int:
    """The key of an exponent tuple at ``width``, whose fields must hold
    its degree."""
    key = sum(exps)
    for e in exps:
        key = key << width | e
    return key


def _unpack(key: int, nvars: int, width: int) -> Exponents:
    """The exponent tuple of a key."""
    mask = (1 << width) - 1
    return tuple(key >> shift & mask for shift in range(width * (nvars - 1), -1, -width))


@lru_cache(maxsize=1 << 12)
def _fields(key: int, nvars: int, width: int) -> tuple[tuple[int, int], ...]:
    """The nonzero exponents of a key as ``(index, exponent)`` pairs, in
    ascending index order, found from the top bit down.  The same keys
    recur across the polynomials of a ring, so the answers are kept."""
    low = key & ((1 << width * nvars) - 1)
    out = []
    while low:
        field = (low.bit_length() - 1) // width
        shift = field * width
        out.append((nvars - 1 - field, low >> shift))
        low &= (1 << shift) - 1
    return tuple(out)


class Poly:
    """A sparse polynomial with exact coefficients."""

    __slots__ = ("nvars", "width", "packed")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Coefficient] | None = None):
        cleaned = []
        degree = 0
        if terms:
            for exps, coeff in terms.items():
                if len(exps) != nvars:
                    raise DimensionMismatchError(
                        "exponent tuple %r does not have %d entries" % (exps, nvars)
                    )
                for e in exps:
                    if type(e) is not int:
                        raise TypeError("exponent %r in %r is not an int" % (e, exps))
                    if e < 0:
                        raise ValueError("negative exponent in %r" % (exps,))
                coeff = _exact(coeff)
                if coeff:
                    cleaned.append((exps, coeff))
                    degree = max(degree, sum(exps))
        width = _width_for(degree)
        _set_nvars(self, nvars)
        _set_width(self, width)
        _set_packed(self, {_pack(exps, width): coeff for exps, coeff in cleaned})

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def _new(nvars: int, width: int, packed: dict[int, Coefficient]) -> "Poly":
        """Trusted constructor: ``packed`` is taken as is, and must map keys
        of ``nvars`` fields of ``width`` bits, degree below ``2**width``, to
        nonzero coefficients in their narrowest type."""
        out = _new_object(Poly)
        _set_nvars(out, nvars)
        _set_width(out, width)
        _set_packed(out, packed)
        return out

    @property
    def terms(self) -> Mapping[Exponents, Coefficient]:
        """A read-only view of the terms keyed by exponent tuples, built on
        each access from the packed dict."""
        nvars, width = self.nvars, self.width
        return MappingProxyType({_unpack(key, nvars, width): coeff
                                 for key, coeff in self.packed.items()})

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Poly":
        return Poly._new(nvars, _MIN_WIDTH, {})

    @staticmethod
    def constant(nvars: int, value) -> "Poly":
        value = _exact(value)
        return Poly._new(nvars, _MIN_WIDTH, {0: value} if value else {})

    @staticmethod
    def variable(nvars: int, index: int) -> "Poly":
        if not 0 <= index < nvars:
            raise DimensionMismatchError("variable index %d out of range" % index)
        return Poly._new(nvars, _MIN_WIDTH, {_unit(nvars, _MIN_WIDTH, index): 1})

    @staticmethod
    def monomial(nvars: int, exponents: Iterable[int], coeff) -> "Poly":
        return Poly(nvars, {tuple(exponents): coeff})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def __bool__(self):
        return bool(self.packed)

    def degree(self):
        if not self.packed:
            return MINUS_INFINITY
        return max(self.packed) >> self.width * self.nvars

    def is_homogeneous(self, k: int) -> bool:
        shift = self.width * self.nvars
        return all(key >> shift == k for key in self.packed)

    def is_homogeneous_in(self, k: int, indices: Iterable[int]) -> bool:
        width, nvars = self.width, self.nvars
        mask = (1 << width) - 1
        shifts = [width * (nvars - 1 - i) for i in indices]
        return all(sum(key >> s & mask for s in shifts) == k for key in self.packed)

    def leading(self) -> tuple[Exponents, Coefficient]:
        """Leading (exponents, coefficient) in graded lex order."""
        if not self.packed:
            raise ValueError("zero polynomial has no leading term")
        key = max(self.packed)
        return _unpack(key, self.nvars, self.width), self.packed[key]

    def coefficient(self, exponents: Iterable[int]) -> Coefficient:
        exps = tuple(exponents)
        # a tuple no term can have is not packed: its fields could carry
        if len(exps) != self.nvars or min(exps, default=0) < 0 or sum(exps) >> self.width:
            return 0
        return self.packed.get(_pack(exps, self.width), 0)

    def linear_terms(self) -> dict[int, Coefficient] | None:
        """The nonzero coefficient of each variable as ``{index: coefficient}``,
        when the polynomial is homogeneous of degree one (or zero); else
        None."""
        width, nvars = self.width, self.nvars
        one = 1 << width * nvars
        coeffs = {}
        for key, coeff in self.packed.items():
            if key >> width * nvars != 1:
                return None
            # below the degree field, the one exponent is the one set bit
            coeffs[nvars - 1 - (key - one).bit_length() // width] = coeff
        return coeffs

    def linear_coefficients(self) -> list[Coefficient] | None:
        """The coefficient of each variable, zeros included, when the
        polynomial is homogeneous of degree one (or zero); else None."""
        terms = self.linear_terms()
        if terms is None:
            return None
        return [terms.get(i, 0) for i in range(self.nvars)]

    def involves(self, indices: Iterable[int]) -> bool:
        """True when some term has a positive exponent at one of
        ``indices``."""
        mask = _field_mask(self.nvars, self.width, tuple(indices))
        return any(key & mask for key in self.packed)

    def constant_value(self) -> Coefficient:
        """The value of a degree-<=0 polynomial."""
        if not self.packed:
            return 0
        if self.degree() > 0:
            raise ValueError("polynomial is not constant")
        return self.packed[0]

    def sorted_terms(self) -> list[tuple[Exponents, Coefficient]]:
        """Terms in descending graded lex order (leading first)."""
        nvars, width, packed = self.nvars, self.width, self.packed
        return [(_unpack(key, nvars, width), packed[key])
                for key in sorted(packed, reverse=True)]

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
        return Poly._new(self.nvars, self.width, {k: -v for k, v in self.packed.items()})

    def __sub__(self, other):
        return _accumulate(self, other, True)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, factor) -> "Poly":
        c = _exact(factor)
        if not c:
            return Poly.zero(self.nvars)
        # a field has no zero divisors, so no product vanishes
        return Poly._new(self.nvars, self.width,
                         {k: _narrow(v * c) for k, v in self.packed.items()})

    def __mul__(self, other):
        if isinstance(other, _EXACT):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._check_compatible(other)
        return _dot_at((self,), (other,), (0,), self.nvars)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        return power(self, exponent, Poly.constant(self.nvars, 1))

    def __eq__(self, other):
        if not isinstance(other, Poly):
            # an exact scalar is a constant of any ring
            if not isinstance(other, _EXACT):
                return NotImplemented
            other = _narrow(other)
            return self.packed == ({0: other} if other else {})
        if self.nvars != other.nvars:
            # constants of two rings are equal when their values are, as
            # each equals its scalar; no other polynomials of two rings are
            return self.packed.keys() <= {0} and self.packed == other.packed
        if self.width == other.width:
            return self.packed == other.packed
        width = max(self.width, other.width)
        return (_repack(self.packed, self.nvars, self.width, width)
                == _repack(other.packed, other.nvars, other.width, width))

    def __hash__(self):
        # a constant, every key 0, as the scalar it equals, and any other
        # polynomial by exponent tuples, as equal ones may differ in width
        if self.packed.keys() <= {0}:
            return hash(self.packed.get(0, 0))
        return hash((self.nvars, frozenset(self.terms.items())))

    # -- calculus and substitution -----------------------------------------

    def gradient(self, indices: Iterable[int] | None = None) -> dict[int, "Poly"]:
        """The nonzero partial derivatives as ``{index: partial}``, in
        ascending index order, from one pass over the terms: by every
        variable, or only by those in ``indices``."""
        nvars, width = self.nvars, self.width
        wanted = None
        if indices is not None:
            wanted = frozenset(indices)
            for i in wanted:
                if not 0 <= i < nvars:
                    raise DimensionMismatchError("variable index %d out of range" % i)
        acc = _derivative_terms(self.packed, nvars, width, wanted)
        return {i: Poly._new(nvars, width, acc[i]) for i in sorted(acc)}

    def partial(self, index: int) -> "Poly":
        """Partial derivative with respect to variable ``index``."""
        return self.gradient((index,)).get(index) or Poly.zero(self.nvars)

    def substitute_linear(self, matrix: Sequence[Sequence[Coefficient]]) -> "Poly":
        """Replace each variable x_i by sum_j matrix[i][j] * y_j.

        ``matrix`` must have ``nvars`` rows; the number of columns sets the
        variable count of the result.
        """
        return _substitute_linear((self,), matrix)[0]

    def substitute(self, values: Mapping[int, Coefficient]) -> "Poly":
        """Evaluate some variables at scalar values (others stay symbolic).

        Each substituted variable's powers are built once, at the exponents
        it carries, and every image coefficient is narrowed.  A
        term's coefficient is multiplied by its powers in the order of
        ``values``.
        """
        nvars, width = self.nvars, self.width
        for i in values:
            if not 0 <= i < nvars:
                raise DimensionMismatchError("variable index %d out of range" % i)
        exps = exponent_sets(nvars, (self,))
        mask = (1 << width) - 1
        rows = [(width * (nvars - 1 - i), powers_of(value, exps[i]))
                for i, value in values.items()]
        hit = _field_mask(nvars, width, tuple(values))
        images = []
        for key, coeff in self.packed.items():
            if key & hit:
                for shift, row in rows:
                    e = key >> shift & mask
                    if e:
                        if row is None:
                            break
                        coeff = coeff * row[e]
                        # the exponent leaves its field and the degree
                        key -= (e << width * nvars) + (e << shift)
                else:
                    images.append((key, _narrow(coeff)))
            else:
                images.append((key, coeff))
        return Poly._new(nvars, width, _add_terms({}, images))

    def evaluate(self, point: Sequence[Coefficient]) -> Coefficient:
        """The value at a point: every variable substituted."""
        if len(point) != self.nvars:
            raise DimensionMismatchError("point has wrong length")
        table = _power_table(point, exponent_sets(self.nvars, (self,)))
        return _value_at(self, table)

    def embed(self, nvars: int, offset: int = 0) -> "Poly":
        """View the polynomial inside a larger ring, variables shifted by offset."""
        if offset < 0 or offset + self.nvars > nvars:
            raise DimensionMismatchError("embedding does not fit")
        width, n = self.width, self.nvars
        tail = width * (nvars - offset - n)
        low = (1 << width * n) - 1
        top = width * nvars
        return Poly._new(nvars, width, {
            (key >> width * n) << top | (key & low) << tail: coeff
            for key, coeff in self.packed.items()})

    def group_by(self, indices: Iterable[int]) -> dict[Exponents, "Poly"]:
        """Split into coefficient polynomials of the monomials in ``indices``.

        Returns a map from the restricted exponent tuple (one entry per
        requested index) to the polynomial of the remaining variables, kept
        in the full ring with zeroed exponents at the grouped positions.
        """
        idx = tuple(indices)
        nvars, width = self.nvars, self.width
        mask = (1 << width) - 1
        top = width * nvars
        shifts = [width * (nvars - 1 - i) for i in idx]
        # a repeated index is one field, which leaves the degree once
        distinct = len(set(idx)) == len(idx)
        grouped = _field_mask(nvars, width, idx)
        # each distinct restriction: the terms of its group and what leaves
        # their keys, its fields and their degree
        restrictions: dict[int, tuple[dict[int, Coefficient], int]] = {}
        groups: dict[Exponents, dict[int, Coefficient]] = {}
        for key, coeff in self.packed.items():
            part = key & grouped
            seen = restrictions.get(part)
            if seen is None:
                exps = tuple([part >> s & mask for s in shifts])
                degree = sum(exps) if distinct else sum(dict(zip(idx, exps)).values())
                seen = restrictions[part] = (groups.setdefault(exps, {}),
                                             part + (degree << top))
            seen[0][key - seen[1]] = coeff
        return {k: Poly._new(nvars, width, v) for k, v in groups.items()}

    def radicand(self) -> int:
        """The common nonzero radicand of the coefficients (0 if all rational)."""
        for coeff in self.packed.values():
            if type(coeff) is Scalar:
                return parts(coeff)[2]
        return 0

    def __repr__(self):
        from .textio import format_poly

        return "Poly(%d, %s)" % (self.nvars, format_poly(self))


# Slot setters that bypass the immutability guard, for ``Poly._new``.
_set_nvars = Poly.nvars.__set__
_set_width = Poly.width.__set__
_set_packed = Poly.packed.__set__


def _unit(nvars: int, width: int, index: int) -> int:
    """The key of the variable ``index``."""
    return 1 << width * nvars | 1 << width * (nvars - 1 - index)


@lru_cache(maxsize=64)
def _units(nvars: int, width: int) -> tuple[int, ...]:
    """The key of each variable: its field and the degree field both one.
    A monomial's key is the sum of its variables' keys, each times its
    exponent."""
    return tuple(_unit(nvars, width, i) for i in range(nvars))


def _linear_form(nvars: int, coeffs: Iterable[tuple[int, Coefficient]]) -> Poly:
    """sum c * x_k over the pairs ``(k, c)`` of ``coeffs`` in ``nvars``
    variables, no index repeated and every c narrow, zeros skipped: each
    term's key is its variable's unit key, so a form costs its pairs."""
    units = _units(nvars, _MIN_WIDTH)
    return Poly._new(nvars, _MIN_WIDTH, {units[k]: c for k, c in coeffs if c})


@lru_cache(maxsize=256)
def _field_mask(nvars: int, width: int, indices: tuple[int, ...]) -> int:
    """The bits of the fields of ``indices`` in a key.  A caller testing
    many polynomials against one set of indices, as
    ``LinearitySystem.alpha_free_equations`` tests each equation for the
    alpha unknowns, gets the mask back from the cache."""
    field = (1 << width) - 1
    mask = 0
    for i in indices:
        mask |= field << width * (nvars - 1 - i)
    return mask


def _derivative_terms(packed: dict[int, Coefficient], nvars: int, width: int,
                      wanted: frozenset[int] | None = None) -> dict[int, dict]:
    """The term dicts of the nonzero partial derivatives of ``packed`` as
    ``{index: terms}``, from one pass over its terms: by every variable, or
    only by those in ``wanted``.  The derivative kernel of
    :meth:`Poly.gradient` and :func:`_torsion_rows`."""
    units = _units(nvars, width)
    acc: dict[int, dict[int, Coefficient]] = {}
    for key, coeff in packed.items():
        for i, e in _fields(key, nvars, width):
            if wanted is not None and i not in wanted:
                continue
            # lowering one exponent maps distinct monomials to distinct
            # ones, and coeff * e is nonzero for e >= 1
            c = coeff if e == 1 else _narrow(coeff * e)
            acc.setdefault(i, {})[key - units[i]] = c
    return acc


def _repack(packed: dict[int, Coefficient], nvars: int, width: int,
            new_width: int) -> dict[int, Coefficient]:
    """A packed dict of ``nvars`` fields of ``width`` bits at a width no
    narrower, the dict itself when the widths agree: the one repacking
    helper."""
    if width == new_width:
        return packed
    return {_pack(_unpack(key, nvars, width), new_width): coeff
            for key, coeff in packed.items()}


def _accumulate(p: Poly, other, subtract: bool):
    """p + other, or p - other when ``subtract``, in one pass over other."""
    if not isinstance(other, Poly):
        if not isinstance(other, _EXACT):
            return NotImplemented
        other = Poly.constant(p.nvars, other)
    p._check_compatible(other)
    nvars, width = p.nvars, p.width
    terms, added = p.packed, other.packed
    if other.width != width:
        width = max(width, other.width)
        terms = _repack(terms, nvars, p.width, width)
        added = _repack(added, nvars, other.width, width)
    return Poly._new(nvars, width, _add_terms(dict(terms), added.items(), subtract))


def _substitute_linear(polys: Sequence[Poly], matrix: Sequence[Sequence[Coefficient]]
                       ) -> list[Poly]:
    """:meth:`Poly.substitute_linear` of each of ``polys``, a nonempty list
    over one ring, with the images ``matrix[i] . y`` and each power of them
    that a term asks for built once for all of them."""
    nvars = polys[0].nvars
    if len(matrix) != nvars:
        raise DimensionMismatchError("substitution matrix needs %d rows" % nvars)
    ncols = len(matrix[0]) if matrix else 0
    if any(len(row) != ncols for row in matrix):
        raise DimensionMismatchError("ragged substitution matrix")
    zero, one = Poly.zero(ncols), Poly.constant(ncols, 1)
    images = [_linear_form(ncols, enumerate(map(_exact, row))) for row in matrix]
    powers: dict[tuple[int, int], Poly] = {}
    out = []
    for p in polys:
        monomials = []
        for key in p.packed:
            # each monomial starts from its first power, and 1 is a
            # monomial with none
            monomial = None
            for i, e in _fields(key, nvars, p.width):
                power = powers.get((i, e))
                if power is None:
                    power = powers[i, e] = images[i] ** e
                monomial = power if monomial is None else monomial * power
            monomials.append(one if monomial is None else monomial)
        out.append(dot(p.packed.values(), monomials, zero))
    return out


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
    """Add (key, nonzero narrow coefficient) pairs into the term dict
    ``acc``, or subtract them when ``subtract``, and return it; a sum that
    cancels is dropped, and every other sum is narrowed."""
    for key, coeff in terms:
        cur = acc.get(key)
        if cur is None:
            acc[key] = -coeff if subtract else coeff
            continue
        total = cur - coeff if subtract else cur + coeff
        if type(total) is not int:
            total = _narrow(total)
        if total:
            acc[key] = total
        else:
            del acc[key]
    return acc


def _add_products(acc: dict, left: dict, right: dict) -> dict:
    """Add every product of a term of ``left`` and a term of ``right`` (term
    dicts with nonzero narrow coefficients, so no product vanishes in a
    field) into the term dict ``acc``, and return it; a sum that cancels is
    dropped.  All three dicts are packed at one width that holds the
    products' degrees, so a monomial product is the sum of two keys.
    Products and sums are narrowed: two fractions can multiply or add to an
    integer, and two irrational scalars to a rational."""
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            key = k1 + k2
            prod = c1 * c2
            if type(prod) is not int:
                prod = _narrow(prod)
            cur = acc.get(key)
            if cur is None:
                acc[key] = prod
                continue
            total = cur + prod
            if type(total) is not int:
                total = _narrow(total)
            if total:
                acc[key] = total
            else:
                del acc[key]
    return acc


def exponent_sets(nvars: int, polys: Iterable[Poly]) -> list[set[int]]:
    """The nonzero exponents each of ``nvars`` variables takes over
    ``polys``, one set per variable, empty for a variable that does not
    occur: where a :func:`_power_table` needs entries for
    :func:`_value_at`."""
    keys: dict[int, set[int]] = {}
    for p in polys:
        # a term dict hands its keys' hashes over, so repeats cost little
        keys.setdefault(p.width, set()).update(p.packed)
    exps: list[set[int]] = [set() for _ in range(nvars)]
    for width, group in keys.items():
        for key in group:
            for i, e in _fields(key, nvars, width):
                exps[i].add(e)
    return exps


#: The most bits a power that evaluation or substitution forms may reach:
#: 2**17, about 39,000 decimal digits, nine times the longest integer the
#: interpreter prints.  :func:`_check_power` refuses a longer one before it
#: is built.
MAX_POWER_BITS = 1 << 17


def _check_power(size: int, exponent: int):
    """FormatError once ``(bits(size) - 1) * exponent`` reaches
    :data:`MAX_POWER_BITS`, where ``size ** exponent``, the bound
    :func:`~linnij.exactfield._size` gives for a power, has more bits than
    that; a power that passes has fewer than twice as many."""
    if (size.bit_length() - 1) * exponent >= MAX_POWER_BITS:
        raise FormatError("a power to the exponent %d of a value of %d bits may "
                          "have more than %d bits"
                          % (exponent, size.bit_length(), MAX_POWER_BITS))


def powers_of(value: Coefficient, exponents: Iterable[int]) -> dict[int, Coefficient] | None:
    """``{e: value**e}`` for each e of ``exponents`` in the ring's narrow
    coefficient types, or None when ``value`` is zero: the narrow rows of a
    :func:`_power_table`, and the power rows of :meth:`Poly.substitute`,
    whose images keep those types.  Each power is built from the one
    below it, after :func:`_check_power` has passed the highest."""
    value = _exact(value)
    if not value:
        return None
    exponents = sorted(exponents)
    if exponents:
        _check_power(_size(value), exponents[-1])
    row = {}
    x, at = 1, 0
    for e in exponents:
        x = _narrow(x * value ** (e - at))
        row[e] = x
        at = e
    return row


def _pair_power(a: int, b: int, d: int, k: int) -> tuple[int, int]:
    """``(a + b*sqrt(d))**k`` as the pair of its int parts."""
    x, y = 1, 0
    while k:
        if k & 1:
            x, y = x * a + d * y * b, x * b + y * a
        k >>= 1
        if k:
            a, b = a * a + d * b * b, 2 * a * b
    return x, y


def _power_table(point: Sequence, exponents: Sequence) -> tuple:
    """The power table of ``point`` for :func:`_value_at`, with an entry
    for each exponent in ``exponents[i]`` of variable i (as
    :func:`exponent_sets` finds them): the plain tuple ``(rows, scale, rad,
    values)``, as one is built per point and unpacked per evaluation.
    Every value must be an ``int``, a ``Fraction`` or a ``Scalar``
    (``TypeError`` otherwise); ``values`` holds them narrowed.  ``rows[i]``
    is None when value i is zero or ``exponents[i]`` is empty: a zero value
    makes every term it divides vanish, and no term reads the row of a
    variable it does not hold.  Every other row is a dict from exponent to
    entry, and no entry of another exponent is built, so the work follows
    the exponents that occur, not the highest of them.

    scale is a common denominator L of the rational and irrational parts
    of the values with exponents, and rad the one radicand d of the
    irrational ones among them, 0 when there is none.  rows[i] maps e to
    ``(L*v)**e``: an int when v is rational, as :func:`powers_of` builds
    it for the int L*v, and an ``(a, b)`` pair of ints for ``a + b*sqrt(d)``
    when v is irrational.

    rad is None when the rows are narrow instead: ``v**e`` in the ring's
    narrow coefficient types, as :func:`powers_of` builds them.  They are
    narrow at an integer point (L = 1, no irrational value), where both
    kinds of row are the same ints; at a point with two radicands; at a
    point where L is far longer than some value with exponents
    (:func:`_scaling_inflates`), as one value with a long denominator would
    inflate every other value's scaled row; and at a point where L to the
    sum of the highest exponents, the most that :func:`_value_at` can
    scale a sum by, could pass :data:`MAX_POWER_BITS`.  Every entry passes
    :func:`_check_power` before it is built.
    """
    values = [_exact(v) for v in point]
    scale = 1
    rads = set()
    reach = 0
    for v, exps in zip(values, exponents):
        if exps and v:
            _, b, d, m = _integer_form(v)
            scale = lcm(scale, m)
            if b:
                rads.add(d)
            reach += max(exps)
    if len(rads) > 1 or scale > 1 and (
            (scale.bit_length() - 1) * reach >= MAX_POWER_BITS
            or _scaling_inflates(values, exponents, scale)):
        return _narrow_rows(values, exponents), 1, None, values
    rows: list[dict | None] = []
    for v, exps in zip(values, exponents):
        if not (v and exps):
            rows.append(None)
            continue
        a, b, d, m = _integer_form(v)
        a *= scale // m
        if not b:
            rows.append(powers_of(a, exps))
            continue
        b *= scale // m
        exps = sorted(exps)
        _check_power(abs(a) + abs(b) * d, exps[-1])
        row = {}
        x, y, at = 1, 0, 0
        for e in exps:
            p, q = _pair_power(a, b, d, e - at)
            x, y = x * p + d * y * q, x * q + y * p
            row[e] = (x, y)
            at = e
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


def _scaling_inflates(values: Sequence, exponents: Sequence, scale: int) -> bool:
    """True when the common denominator ``scale`` has more bits than twice
    those of the numerators and denominators of some nonzero value with
    exponents, plus :data:`_SCALE_SLACK`.  Each power of such a
    value would grow by the bits of ``scale`` in a scaled row but by its own
    in a narrow one; below the bound a scaled row, and the powers of
    ``scale`` that bring a polynomial's terms to one degree, stay within a
    constant factor of the narrow rows' size."""
    limit = scale.bit_length() - _SCALE_SLACK
    for v, exps in zip(values, exponents):
        if exps and v:
            if type(v) is int:
                bits = v.bit_length()
            else:
                rat, irr, _ = parts(v)
                bits = rat.numerator.bit_length() + rat.denominator.bit_length()
                if irr:
                    bits += irr.numerator.bit_length() + irr.denominator.bit_length()
            if 2 * bits < limit:
                return True
    return False


def _narrow_rows(values: Sequence, exponents: Sequence) -> list:
    """The narrow rows of a power table: :func:`powers_of` each value at
    its exponents, None when there are none."""
    return [powers_of(v, exps) if exps else None for v, exps in zip(values, exponents)]


def _value_at(p: Poly, table: tuple) -> Coefficient:
    """The value of ``p`` at the point of ``table`` (:func:`_power_table`),
    whose rows hold an entry at every exponent each variable takes in
    ``p``, in its narrow type.

    Each term walks only its nonzero exponents (``_fields``).  Over narrow
    rows each term is its coefficient times its variables' entries in
    index order, in the narrow types, and the terms are summed in turn.
    Over scaled rows a term's product of table entries is ``L**k`` times
    its value, for k the term's degree, read off its key.  The sum is kept
    as ``L**deg`` times the sum so far, for deg the highest degree of a
    term so far: a term of lower degree is scaled up by ``L**(deg - k)``,
    and one of higher degree scales the sum up instead.  The terms sum as
    two ints, the rational and the ``sqrt(d)`` part, and one division by
    ``L**deg`` ends the sum.  A coefficient multiplies its term's product
    last, so a ``Fraction`` costs one rational product per term.  A
    coefficient whose radicand is not the point's sends the whole sum to
    the narrow rows, where :class:`~linnij.errors.RadicandMismatchError`
    is raised, or not, as the narrow products and sums decide.
    """
    rows, scale, rad, values = table
    nvars, width = p.nvars, p.width
    if rad is None:
        total = 0
        for key, coeff in p.packed.items():
            for i, e in _fields(key, nvars, width):
                row = rows[i]
                if row is None:
                    break
                coeff *= row[e]
            else:
                total += coeff
        return total if type(total) is int else _narrow(total)
    shift = width * nvars
    total_a = total_b = deg = 0
    for key, coeff in p.packed.items():
        kind = type(coeff)
        if kind is Scalar:
            rat, irr, d = parts(coeff)
            if rad and d != rad:
                exponents = [row or () for row in rows]
                return _value_at(p, (_narrow_rows(values, exponents), 1, None, values))
            # the point's radicand, or the only one so far if no value is irrational
            rad = d
        a, b = 1, 0
        for i, e in _fields(key, nvars, width):
            row = rows[i]
            if row is None:
                break
            x = row[e]
            if type(x) is int:
                a *= x
                b *= x
            else:
                x0, x1 = x
                a, b = a * x0 + rad * b * x1, a * x1 + b * x0
        else:
            k = key >> shift
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
                a, b = rat * a + rad * irr * b, rat * b + irr * a
            else:
                a *= coeff
                b *= coeff
            total_a += a
            total_b += b
    return _from_integer_form(total_a, total_b, rad, scale ** deg)


# what a dot over scalar rows multiplies; Fraction, an ABC, is checked last
_FACTOR = (Scalar, int, Poly, Fraction)


def dot(left, right, zero):
    """Sum of the pairwise products of two rows, skipping zero factors.

    The rows may hold :class:`Poly` values, exact scalars or a mix of
    both, and must have one length, else
    :class:`~linnij.errors.DimensionMismatchError`; ``zero`` is the sum
    when every product is skipped.  Every factor's type is checked before a
    zero one is skipped, so a float factor, zero or not, raises
    ``TypeError``.  When ``zero`` is a :class:`Poly`, every factor is read
    as a polynomial of its ring, a zero factor as the zero polynomial, and
    the rows are summed by :func:`_dot_at`.
    """
    if len(left) != len(right):
        raise DimensionMismatchError("dot of rows of lengths %d and %d"
                                     % (len(left), len(right)))
    if not isinstance(zero, Poly):
        total = zero
        for p, q in zip(left, right):
            if not (isinstance(p, _FACTOR) and isinstance(q, _FACTOR)):
                raise TypeError("dot factors %r, %r are not each a Poly, an int, "
                                "a Fraction or a Scalar" % (p, q))
            if p and q:
                total = total + p * q
        return total
    left = [_poly_in(p, zero) for p in left]
    right = [_poly_in(q, zero) for q in right]
    return _dot_at(left, right, range(len(left)), zero.nvars)


def _support(row: Sequence[Poly]) -> list[int]:
    """The positions of the nonzero polynomials in ``row``."""
    return [i for i, p in enumerate(row) if p.packed]


def _dot_at(left: Sequence[Poly], right: Sequence[Poly], indices: Iterable[int],
            nvars: int) -> Poly:
    """The ring's one sum-of-products loop: the sum of the products of two
    rows of polynomials over the same ``nvars`` variables, over the
    positions in ``indices`` only, zero factors skipped.  :func:`dot` passes
    every position; a caller that knows where one row is zero passes its
    :func:`_support` and pays for its nonzero entries alone.

    It sums in one term dict of one width, starting from the narrowest;
    two factors of that width whose leading keys sum below ``top``,
    ``2**width`` in the degree field, are multiplied as they are, as the
    sum's degree field is then the product's degree and it fits.  Any other
    pair goes through :func:`_widened`."""
    terms: dict[int, Coefficient] = {}
    width, top = _MIN_WIDTH, 1 << _MIN_WIDTH * (nvars + 1)
    for i in indices:
        p, q = left[i], right[i]
        a, b = p.packed, q.packed
        if a and b:
            if p.width != width or q.width != width or max(a) + max(b) >= top:
                terms, width, top, a, b = _widened(terms, width, p, q)
            _add_products(terms, a, b)
    return Poly._new(nvars, width, terms)


def _widened(terms: dict[int, Coefficient], width: int, p: Poly, q: Poly) -> tuple:
    """A sum of products of :func:`_dot_at`, whose dict has ``width``,
    brought to the width the product of the nonzero ``p`` and ``q`` needs
    as well: the widest of the three widths, widened until it holds the sum
    of their degrees.  Returns ``(terms, width, top, packed
    of p, packed of q)``, all at that width."""
    nvars = p.nvars
    degree = (max(p.packed) >> p.width * nvars) + (max(q.packed) >> q.width * nvars)
    needed = max(width, p.width, q.width, _width_for(degree))
    return (_repack(terms, nvars, width, needed), needed, 1 << needed * (nvars + 1),
            _repack(p.packed, nvars, p.width, needed), _repack(q.packed, nvars, q.width, needed))


def _poly_in(factor, zero: Poly) -> Poly:
    """A :func:`dot` factor as a polynomial of the ring of ``zero``: a
    scalar is a constant."""
    if isinstance(factor, Poly):
        zero._check_compatible(factor)
        return factor
    return Poly.constant(zero.nvars, factor)


def _torsion_rows(entries: Sequence[Sequence[Poly]]) -> Iterator[list[tuple[int, int, Poly]]]:
    """The torsion of the n x n operator ``entries`` over n variables, as
    :func:`~linnij.nijenhuis.torsion` states it, one row at a time: for
    each row i in turn, its nonzero components ``(j, k, Poly)`` with j < k,
    0-based, in lexicographic order.

    Each product is one of two nonzero term dicts, added into the
    component it belongs to, so the work follows the operator's nonzero
    terms and not its n^3 index slots.  Every sum is held at one width,
    the one that holds twice the largest entry degree and so every
    product.  Each entry's derivatives are formed once, from its terms
    (:func:`_derivative_terms`).  The entry L^v_j times a derivative
    dL^i_k/dx^v adds into component (i, j, k) when j < k, and is subtracted
    from (i, k, j) when j > k; at j = k the two sums cancel.  Each curl
    dL^s_k/dx^j - dL^s_j/dx^k with j < k is summed once, for all rows, from
    the derivatives, and held negated, so row i adds L^i_s times it for
    each of its nonzero entries L^i_s.  A caller that stops after a row
    pays for the derivatives, the curls and the rows up to it.
    """
    n = len(entries)
    nonzero = [[(c, p) for c, p in enumerate(row) if p.packed] for row in entries]
    degree = max((max(p.packed) >> p.width * n for row in nonzero for _, p in row), default=0)
    width = _width_for(2 * degree)
    # each row's nonzero entries, as (column, terms, negated terms)
    rows = []
    for row in nonzero:
        found = []
        for c, p in row:
            terms = _repack(p.packed, n, p.width, width)
            found.append((c, terms, {key: -coeff for key, coeff in terms.items()}))
        rows.append(found)
    # derivatives[i]: (k, v, terms of dL^i_k/dx^v), nonzero ones only
    derivatives = []
    # curls[(s*n + j)*n + k]: terms of dL^s_j/dx^k - dL^s_k/dx^j, the curl
    # negated
    curls: dict[int, dict[int, Coefficient]] = {}
    for s, row in enumerate(rows):
        found = []
        for c, terms, _ in row:
            for v, d in _derivative_terms(terms, n, width).items():
                found.append((c, v, d))
                if v < c:
                    _add_terms(curls.setdefault((s * n + v) * n + c, {}), d.items(), True)
                elif v > c:
                    _add_terms(curls.setdefault((s * n + c) * n + v, {}), d.items())
        derivatives.append(found)
    curl_rows: dict[int, list] = {}
    for at, terms in curls.items():
        if terms:
            s, at = divmod(at, n * n)
            curl_rows.setdefault(s, []).append((at, terms))
    for i in range(n):
        acc: dict[int, dict[int, Coefficient]] = {}
        for k, v, d in derivatives[i]:
            for j, terms, minus in rows[v]:
                if j < k:
                    at = j * n + k
                    _add_products(acc[at] if at in acc else acc.setdefault(at, {}), terms, d)
                elif j > k:
                    at = k * n + j
                    _add_products(acc[at] if at in acc else acc.setdefault(at, {}), minus, d)
        for s, terms, _ in rows[i]:
            for at, curl in curl_rows.get(s, ()):
                _add_products(acc[at] if at in acc else acc.setdefault(at, {}), terms, curl)
        yield [(*divmod(at, n), Poly._new(n, width, acc[at])) for at in sorted(acc) if acc[at]]


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
    nvars = p.nvars
    # no term of the remainder or the quotient outgrows the degree of p
    width = p.width if p.width >= q.width else q.width
    divisor = _repack(q.packed, nvars, q.width, width)
    lead = max(divisor)
    inverse = _reciprocal(divisor[lead])
    mask = (1 << width) - 1
    lead_fields = [(width * (nvars - 1 - i), e) for i, e in _fields(lead, nvars, width)]
    # leading terms fall strictly, so no quotient term repeats
    quotient: dict[int, Coefficient] = {}
    remainder = dict(_repack(p.packed, nvars, p.width, width))
    while remainder:
        key = max(remainder)
        if any(key >> shift & mask < e for shift, e in lead_fields):
            return DivisibilityFailure(Poly._new(nvars, width, remainder))
        coeff = _narrow(remainder[key] * inverse)
        quotient[key - lead] = coeff
        _add_products(remainder, {key - lead: -coeff}, divisor)
    return Poly._new(nvars, width, quotient)
