"""Readers and kernels as they were before listings were read by a fast path,
for tests only.

``parse_system`` is the line reader that read every listing line by line,
over the flat reader of that time (one full match and one ``findall`` per
sum); ``group_by`` is :meth:`Poly.group_by` with its ``_fields`` degree;
``substitute_linear`` is ``polyring._substitute_linear`` with every
monomial started from the constant 1.  ``Scalar`` is ``exactfield.Scalar``
as it was when it held ``rat + irr*sqrt(rad)`` as two ``Fraction`` parts,
with the readers that went with it (``_narrow``, ``parts``,
``_integer_form``, ``_from_integer_form``) and the ``scalar_sqrt`` that
ran on them.  ``covariance_positions``, ``reconstruction_pieces`` and
``operator_by_points`` are the covariance check of ``verify_entry``, the
symbolic pieces and the point path as they were when each multiplied by
the companion matrix S, the point path reading its operator off n + 1
points.  Each is kept verbatim in substance, so the faster code can be
checked against it.
"""

import math
import re
from fractions import Fraction
from functools import total_ordering

from itertools import takewhile

from linnij.errors import (
    DependentSigmasError, FormatError, NotRepresentableError, RadicandMismatchError,
    SingularMatrixError)
from linnij import exactfield
from linnij.exactfield import power, rational_sqrt, square_free_split
from linnij.polymatrix import (
    PolyMatrix, companion_matrix, jacobian, scalar_solve, seeded_points)
from linnij.polyring import (
    _MIN_WIDTH, Poly, _exact, _field_mask, _fields, _linear_form, dot)
from linnij.reconstruct import Equation, LinearitySystem
from linnij.textio import _descend, _int_literal, _monomial_key, _name_table

_MONOMIAL = r"[A-Za-z_][A-Za-z0-9_]*(?:\^[0-9]+)?(?:\*[A-Za-z_][A-Za-z0-9_]*(?:\^[0-9]+)?)*"
_FLAT_TERM = r"(?:[0-9]+(?:\*%s)?|%s)" % (_MONOMIAL, _MONOMIAL)
_FLAT_SUM = re.compile(r"-?%s(?: [-+] %s)*" % (_FLAT_TERM, _FLAT_TERM))
_FLAT_TERMS = re.compile(r"(?:^(-?)| ([-+]) )([0-9]*)\*?([^ ]*)")


def read_flat(text, nvars, index_of, keys):
    if _FLAT_SUM.fullmatch(text) is None:
        return None
    acc = {}
    for lead, sign, digits, mono in _FLAT_TERMS.findall(text):
        if mono:
            key = keys.get(mono)
            if key is None:
                key = _monomial_key(mono, nvars, index_of, keys)
                if key is None:
                    return None
        else:
            key = 0
        if digits:
            try:
                coeff = int(digits)
            except ValueError:
                return None
            if not coeff:
                continue
        else:
            coeff = 1
        if lead or sign == "-":
            coeff = -coeff
        cur = acc.get(key)
        if cur is None:
            acc[key] = coeff
        elif cur + coeff:
            acc[key] = cur + coeff
        else:
            del acc[key]
    return Poly._new(nvars, _MIN_WIDTH, acc)


def parse_poly(text, nvars, index_of, keys=None):
    flat = read_flat(text, nvars, index_of, {} if keys is None else keys)
    if flat is not None:
        return flat
    return _descend(text, nvars, index_of)


def parse_monomial(text, names):
    terms = parse_poly(text, len(names), _name_table(names)).sorted_terms()
    if len(terms) != 1 or terms[0][1] != 1:
        raise FormatError("not a monomial: %r" % text)
    return terms[0][0]


def _listing_int(digits, field):
    if not (digits.isascii() and digits.isdigit()):
        raise FormatError("%s is not a number: %r" % (field, digits))
    return _int_literal(digits)


def parse_system(text):
    case = None
    count = None
    geo_names = []
    symbol_names = []
    equations = []
    names = []
    monomials = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("case:"):
                    case = body[len("case:"):].strip()
                elif body.startswith("geometric:"):
                    geo_names = body[len("geometric:"):].split()
                elif body.startswith("symbols:"):
                    symbol_names = body[len("symbols:"):].split()
                elif body.startswith("equations:"):
                    count = _listing_int(body[len("equations:"):].strip(),
                                         "equation count")
                continue
            if not names:
                if not geo_names or not symbol_names:
                    raise FormatError("equation listed before its variable header")
                names = geo_names + symbol_names
                index_of = _name_table(names)
                keys = {}
                n = len(geo_names)
                geo = tuple(range(n))
            head, _, rhs = line.partition("::")
            if not rhs:
                raise FormatError("missing '::' in equation line %r" % line)
            fields = head.split()
            if len(fields) != 3:
                raise FormatError("malformed equation header %r" % head)
            entry, pos, mono_text = fields
            cells = pos[1:-1].split(",")
            if not (pos.startswith("(") and pos.endswith(")") and len(cells) == 2):
                raise FormatError("malformed position %r" % pos)
            row, col = (_listing_int(cell, "position") for cell in cells)
            if not (2 <= row <= n and 1 <= col <= n
                    and entry == "P%d" % ((row - 2) * n + col)):
                raise FormatError("%s %s is not P((row-2)*n+col) (row,col) with "
                                  "2 <= row <= n, 1 <= col <= n, n = %d"
                                  % (entry, pos, n))
            monomial = monomials.get(mono_text)
            if monomial is None:
                monomial = monomials[mono_text] = parse_monomial(mono_text, geo_names)
            poly_text, equals, zero = rhs.rpartition("=")
            if not equals or zero.strip() != "0":
                raise FormatError("equation does not end in '= 0'")
            poly = parse_poly(poly_text.strip(), len(names), index_of, keys)
            if poly.involves(geo):
                raise FormatError("equation names a geometric variable: %r" % line)
            equations.append(Equation(entry, row, col, monomial, poly))
        except FormatError as exc:
            raise FormatError("line %d: %s" % (lineno, exc))
    if case is None or not names:
        raise FormatError("system listing is missing its header")
    if count is None:
        raise FormatError("system listing is missing its '# equations:' header")
    if count != len(equations):
        raise FormatError(
            "system listing declares %d equations but lists %d"
            % (count, len(equations))
        )
    return LinearitySystem(case, tuple(names), len(geo_names), equations, None)


def group_by(p, indices):
    idx = tuple(indices)
    nvars, width = p.nvars, p.width
    mask = (1 << width) - 1
    shifts = [width * (nvars - 1 - i) for i in idx]
    grouped = _field_mask(nvars, width, idx)
    restrictions = {}
    groups = {}
    for key, coeff in p.packed.items():
        part = key & grouped
        seen = restrictions.get(part)
        if seen is None:
            degree = sum(e for _, e in _fields(part, nvars, width))
            seen = restrictions[part] = (
                tuple(part >> s & mask for s in shifts),
                part + (degree << width * nvars))
        groups.setdefault(seen[0], {})[key - seen[1]] = coeff
    return {k: Poly._new(nvars, width, v) for k, v in groups.items()}


def substitute_linear(polys, matrix):
    nvars = polys[0].nvars
    ncols = len(matrix[0]) if matrix else 0
    zero = Poly.zero(ncols)
    images = [_linear_form(ncols, enumerate(map(_exact, row))) for row in matrix]
    powers = {}
    out = []
    for p in polys:
        monomials = []
        for key in p.packed:
            monomial = Poly.constant(ncols, 1)
            for i, e in _fields(key, nvars, p.width):
                if (i, e) not in powers:
                    powers[i, e] = images[i] ** e
                monomial = monomial * powers[i, e]
            monomials.append(monomial)
        out.append(dot(p.packed.values(), monomials, zero))
    return out


def covariance_positions(jac, operator, sigmas):
    lhs = jac @ operator
    rhs = companion_matrix(list(sigmas)) @ jac
    return [(r + 1, c + 1) for r in range(lhs.rows) for c in range(lhs.cols)
            if lhs[r, c] != rhs[r, c]]


def reconstruction_pieces(sigmas):
    j = jacobian(sigmas, wrt=range(len(sigmas)))
    q = j.determinant()
    if q.is_zero():
        raise DependentSigmasError([i + 1 for i in j.dependent_rows()])
    s = companion_matrix(list(sigmas))
    return j.adjugate() @ s @ j, q


def operator_by_points(sigmas):
    n = len(sigmas)
    if not all(s.is_homogeneous(i) for i, s in enumerate(sigmas, start=1)):
        return None
    j = jacobian(sigmas)
    sigmas_and_j = PolyMatrix([(s,) + row for s, row in zip(sigmas, j.entries)])
    zeros = [0] * n

    def solved(values):
        sp = [row[0] for row in values]
        jp = [row[1:] for row in values]
        sjp = [[below - s * v if v else below for v, below in zip(jp[0], next_row)]
               for s, next_row in zip(sp, jp[1:] + [zeros])]
        try:
            return [v for row in scalar_solve(jp, sjp) for v in row]
        except SingularMatrixError:
            return None

    for base in seeded_points(n):
        points = [base] + [base[:k] + [base[k] + 1] + base[k + 1 :]
                           for k in range(n)]
        found = list(takewhile(lambda v: v is not None,
                               map(solved, sigmas_and_j.at(points))))
        if len(found) == n + 1:
            break
    else:
        return None
    at_base = found[0]
    slopes = [[exactfield._narrow(v - w) if v or w else v
               for v, w in zip(at_point, at_base)]
              for at_point in found[1:]]
    candidate = PolyMatrix([
        [_linear_form(n, enumerate(slope[r * n + c] for slope in slopes)) for c in range(n)]
        for r in range(n)])
    if j @ candidate != companion_matrix(sigmas) @ j:
        return None
    return candidate


_FRACTION_ZERO = Fraction(0)
_RATIONAL = (int, Fraction)
_new_object = object.__new__


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
