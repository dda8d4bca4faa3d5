"""Matrices of polynomials and exact scalar linear algebra.

One elimination per coefficient domain.  Over polynomials, a fraction-free
elimination (Bareiss) reduces a matrix one row at a time against the pivot
rows above it; every intermediate entry is a minor of the input, so each
division step is exact.  It gives the polynomial determinant, each cofactor
of the adjugate and the dependence test :meth:`PolyMatrix.dependent_rows`.
Over the scalar field, one Gauss-Jordan elimination on primitive integral
rows (:func:`_eliminate`) gives the determinant, the inverse and
:func:`scalar_solve` of scalar right-hand sides: each row's denominators
are cleared once, every step keeps the rows' entries ints, or elements of
Z[sqrt(d)] with int parts, and divides each row by the gcd of its ints, and
only the last step divides, once per solution entry, so results come in the
ring's narrow coefficient types, as :class:`Poly` holds them.
Characteristic coefficients use Berkowitz's division-free algorithm
instead, in the operator's own ring; Bareiss stays for the determinant
because Berkowitz swells more on dense Jacobians such as those of the
sigmas.  A plain cofactor expansion is kept alongside as an independent
cross-check route; callers that verify results should compare against it
rather than trust one path.

Every other sum of products here goes through :func:`linnij.polyring.dot`,
which skips zero factors, or, for the matrix products and the products of
the Berkowitz loop, through its positional form
:func:`linnij.polyring._dot_at`, which runs over the nonzero positions of
one vector only: a column of the right factor in a product, a row of the
operator or the Toeplitz column in the Berkowitz loop.  Those positions
are listed once per vector (``_support``), so a sparse matrix pays for its
nonzero entries, and no pair of factors is copied into a list first.

The companion matrix S of the sigmas is never formed by the package:
:func:`_companion_rows` builds the rows of S M as M_{i+1} - sigma_i M_0,
for polynomial rows (S J of the symbolic reconstruction) and scalar rows
(S(p) J(p) of the point path) alike, and :func:`covariance_defects`
checks J L = S J one entry at a time, each entry one :func:`_dot_at` sum
compared with an entry of J.  :func:`companion_matrix` stays as the
public form of S and the tests' independent cross-check.

Certificates by evaluation use :meth:`PolyMatrix.at` and :func:`seeded_points`:
a nonzero exact value at a point proves a polynomial nonzero (Schwartz,
J. ACM 1980); a zero value proves nothing.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from math import gcd
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatchError, LinnijError, SingularMatrixError
from .polyring import (
    Coefficient, DivisibilityFailure, Poly, _dot_at, _exact, _power_table,
    _substitute_linear, _support, _value_at, dot, exact_divide, exponent_sets)
from .exactfield import _content, _integral_row, _narrow, _quotient
from .record import Record


class PolyMatrix(Record):
    """A rectangular matrix of :class:`Poly` entries over one shared ring,
    held as a tuple of row tuples."""

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise DimensionMismatchError("empty matrix")
        cols = len(entries[0])
        nvars = entries[0][0].nvars
        for row in entries:
            if len(row) != cols:
                raise DimensionMismatchError("ragged matrix")
            for entry in row:
                if entry.nvars != nvars:
                    raise DimensionMismatchError("mixed variable counts")
        super().__init__(len(entries), cols, nvars, entries)

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows or self.nvars != other.nvars:
            raise DimensionMismatchError("shape or ring mismatch in product")
        nvars = self.nvars
        # each entry runs over the nonzero positions of its column, listed
        # once per column
        cols = [(col, _support(col)) for col in zip(*other.entries)]
        return PolyMatrix([[_dot_at(row, col, support, nvars) for col, support in cols]
                           for row in self.entries])

    def substitute_linear(self, matrix: Sequence[Sequence[Coefficient]]) -> "PolyMatrix":
        """Every entry's :meth:`Poly.substitute_linear`, the images of the
        variables and their powers built once for the whole matrix."""
        images = iter(_substitute_linear([p for row in self.entries for p in row],
                                         [list(r) for r in matrix]))
        return PolyMatrix([[next(images) for _ in row] for row in self.entries])

    def at(self, points: Iterable[Sequence[Coefficient]]
           ) -> Iterator[list[list[Coefficient]]]:
        """The value of every entry, row by row, at each of ``points`` in
        turn, computed as it is asked for.  Each point gets one power
        table (``polyring._power_table``), with entries at the exponents
        each variable takes in the matrix, found once, and every entry is
        summed against it by the one kernel ``polyring._value_at``."""
        exps = exponent_sets(self.nvars, (p for row in self.entries for p in row))
        for point in points:
            if len(point) != self.nvars:
                raise DimensionMismatchError("point has wrong length")
            table = _power_table(point, exps)
            yield [[_value_at(p, table) for p in row] for row in self.entries]

    # -- determinants --------------------------------------------------------

    def _require_square(self):
        if not self.is_square():
            raise DimensionMismatchError("square matrix required")

    def determinant(self) -> Poly:
        """Fraction-free determinant; every division is an exact minor."""
        self._require_square()
        return _det(self.entries, Poly.zero(self.nvars))

    def determinant_cofactor(self) -> Poly:
        """Cofactor-expansion determinant, the independent slow route."""
        self._require_square()
        return _cofactor_det(self.entries)

    def dependent_rows(self) -> list[int]:
        """0-based indices of the rows that depend on the rows above them."""
        pivots = _bareiss(self.entries, Poly.zero(self.nvars))
        return [i for i, pivot in enumerate(pivots) if pivot is None]

    def adjugate(self) -> "PolyMatrix":
        """Transposed cofactor matrix, satisfying M @ adj(M) == det(M) * I."""
        self._require_square()
        n = self.rows
        if n == 1:
            return PolyMatrix([[Poly.constant(self.nvars, 1)]])
        zero = Poly.zero(self.nvars)
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            rest = self.entries[:i] + self.entries[i + 1 :]
            for j in range(n):
                cof = _det([row[:j] + row[j + 1 :] for row in rest], zero)
                out[j][i] = -cof if (i + j) % 2 else cof  # transposed position
        return PolyMatrix(out)  # type: ignore[arg-type]


def _bareiss(rows, zero):
    """Fraction-free elimination, one row at a time (Bareiss, Math. Comp. 22,
    1968); yields each row's pivot as (column, value), or None for a row
    that depends on the rows above it.

    Each row is reduced against the pivot rows above it, in order: the step
    against a pivot row with pivot p in column c replaces every entry v by
    (p*v - row[c]*w) / p', with w the pivot row's entry in v's column and
    p' the pivot of the step before; the first step divides by nothing.
    Every reduced entry is a minor of the input, so :func:`exact_divide`
    never leaves a remainder; one that does is an internal error.  A row's
    pivot is its first nonzero entry once reduced; a row that reduces to
    zero is not a pivot row.  The pivot column, and every entry whose two operands
    are zero, becomes zero without arithmetic.
    """
    pivots = []
    for row in rows:
        previous = None
        for pivot_row, c, p in pivots:
            f = row[c]
            reduced = []
            for j, (v, w) in enumerate(zip(row, pivot_row)):
                if j == c:
                    v = zero
                elif f and w:
                    v = p * v - f * w if v else -(f * w)
                elif v:
                    v = p * v
                if v and previous is not None:
                    v = exact_divide(v, previous)
                    if isinstance(v, DivisibilityFailure):
                        raise LinnijError("internal: fraction-free step failed to divide")
                reduced.append(v)
            row = reduced
            previous = p
        c = next((j for j, v in enumerate(row) if v), None)
        if c is None:
            yield None
        else:
            pivots.append((row, c, row[c]))
            yield c, row[c]


def _det(rows, zero):
    """Determinant of a square matrix by :func:`_bareiss`: zero when a row
    depends on the ones above, else the last pivot times the sign of the
    pivot-column permutation."""
    columns = []
    sign = 1
    for pivot in _bareiss(rows, zero):
        if pivot is None:
            return zero
        c, last = pivot
        if sum(d > c for d in columns) % 2:
            sign = -sign
        columns.append(c)
    return last if sign > 0 else -last


def _cofactor_det(entries: list[list[Poly]]) -> Poly:
    n = len(entries)
    if n == 1:
        return entries[0][0]
    nvars = entries[0][0].nvars
    acc = Poly.zero(nvars)
    for j in range(n):
        if entries[0][j].is_zero():
            continue
        sub = [[row[c] for c in range(n) if c != j] for row in entries[1:]]
        term = entries[0][j] * _cofactor_det(sub)
        acc = acc + (term if j % 2 == 0 else -term)
    return acc


def jacobian(polys: Sequence[Poly], wrt: Sequence[int] | None = None) -> PolyMatrix:
    """Matrix of partials: row i is the gradient of polys[i]."""
    if not polys:
        raise DimensionMismatchError("empty polynomial list")
    wanted = None if wrt is None else list(wrt)
    indices = range(polys[0].nvars) if wanted is None else wanted
    rows = []
    for p in polys:
        gradient, zero = p.gradient(wanted), Poly.zero(p.nvars)
        rows.append([gradient.get(j, zero) for j in indices])
    return PolyMatrix(rows)


_COORDINATES = range(-50, 51)


def seeded_points(nvars: int) -> Iterator[list[int]]:
    """The integer points a certificate in ``nvars`` variables may try, the
    same on every call: 2 * nvars + 4 of them, coordinates in -50..50.
    Only speed depends on them, as every certificate falls back to exact
    symbolic work."""
    rng = random.Random(20240417)
    for _ in range(2 * nvars + 4):
        yield [rng.choice(_COORDINATES) for _ in range(nvars)]


def companion_matrix(sigmas: Sequence[Poly]) -> PolyMatrix:
    """Companion form: first column -sigma_1..-sigma_n, ones above diagonal."""
    n = len(sigmas)
    if n == 0:
        raise DimensionMismatchError("empty sigma list")
    nvars = sigmas[0].nvars
    zero = Poly.zero(nvars)
    one = Poly.constant(nvars, 1)
    rows = []
    for i in range(n):
        row = [zero] * n
        row[0] = -sigmas[i]
        if i + 1 < n:
            row[i + 1] = one
        rows.append(row)
    return PolyMatrix(rows)


def _companion_rows(sigmas: Sequence, rows: Sequence[Sequence], zero) -> list[list]:
    """The rows of S M, for S the :func:`companion_matrix` of ``sigmas`` and
    M the matrix of ``rows``, without forming S: row i is
    M_{i+1} - sigma_i M_0, with M_n a row of ``zero``.  Only the entries
    where M_0 is nonzero are touched, and it runs alike on rows of
    polynomials and on rows of scalars."""
    first = rows[0]
    below = [*rows[1:], [zero] * len(first)]
    return [[b - s * v if v else b for v, b in zip(first, row)]
            for s, row in zip(sigmas, below)]


def covariance_defects(jac: PolyMatrix, operator: PolyMatrix, sigmas: Sequence[Poly]
                       ) -> list[tuple[int, int]]:
    """The 1-based positions (row, column), in row order, where J L != S J,
    for J = ``jac``, L = ``operator`` and S the companion matrix of
    ``sigmas``.

    Entry (i, k) of S J is J_{i+1,k} - sigma_i J_0k (:func:`_companion_rows`,
    J_n = 0), so the identity there reads
    sum_j J_ij L_jk + sigma_i J_0k == J_{i+1,k}: one :func:`_dot_at` of row
    i of J, sigma_i appended, against column k of L, J_0k appended, over
    the column's nonzero positions and the appended one when J_0k is
    nonzero.  Neither S, S J nor J L is formed."""
    n, m = jac.rows, jac.cols
    nvars = jac.nvars
    if (len(sigmas) != n or operator.rows != m or operator.cols != m
            or operator.nvars != nvars or any(s.nvars != nvars for s in sigmas)):
        raise DimensionMismatchError("shape or ring mismatch in J*L = S*J")
    rows = jac.entries
    first = rows[0]
    cols = []
    for k, col in enumerate(zip(*operator.entries)):
        support = _support(col)
        if first[k]:
            col += (first[k],)
            support.append(m)
        cols.append((col, support))
    zero = Poly.zero(nvars)
    below = [*rows[1:], [zero] * m]
    spots = []
    for i, (s, row, target) in enumerate(zip(sigmas, rows, below)):
        left = (*row, s)
        spots += [(i + 1, k + 1) for k, (col, support) in enumerate(cols)
                  if _dot_at(left, col, support, nvars) != target[k]]
    return spots


def charpoly_sigmas(operator: PolyMatrix) -> list[Poly]:
    """Coefficients sigma_1..sigma_n of det(t*Id - L), by Berkowitz.

    Division-free (S. J. Berkowitz, Inf. Process. Lett. 18, 1984): the
    coefficient vector of the trailing k x k principal submatrix is grown
    one row and column at a time by a lower-triangular Toeplitz product
    whose entries are 1, -a, -R C, -R M C, -R M^2 C, ...  with a, R, C the
    new diagonal entry, row and column and M the trailing block.  Only ring
    multiplications happen, in the operator's own ring, O(n^4) of them at
    most and only products of two nonzero factors: each row's nonzero
    entries are listed once, and each product R M^p C runs over them.  Once
    M^p C is zero, every higher power is zero too, so the loop stops there
    and the Toeplitz entries past it are zero; the Toeplitz product runs
    over the nonzero entries alone.  A nilpotent or triangular trailing
    block thus costs fewer powers than n.  The t^n coefficient is checked
    to be exactly one.
    """
    operator._require_square()
    n = operator.rows
    a = operator.entries
    nvars = operator.nvars
    zero = Poly.zero(nvars)
    one = Poly.constant(nvars, 1)
    rows = [(row, _support(row)) for row in a]
    coeffs = [one, -a[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        toeplitz = [one, -a[k][k]]
        # M^p C at its own indices; the zeros at indices up to k make a
        # whole row's nonzero positions read as those of R or of a row of M
        vec = [zero] * (k + 1) + [a[i][k] for i in range(k + 1, n)]
        for power in range(n - 1 - k):
            if power:
                vec[k + 1 :] = [_dot_at(vec, *rows[i], nvars) for i in range(k + 1, n)]
            if not any(vec):
                # M^p C = 0, and with it every higher power
                break
            toeplitz.append(-_dot_at(vec, *rows[k], nvars))
        # entry i of the product is the sum of toeplitz[m] * coeffs[i - m]
        # over the nonzero toeplitz[m] with m <= i; every entry past the
        # last one formed is zero
        support = _support(toeplitz)
        size = len(coeffs)
        flipped = [zero] + coeffs[::-1]  # flipped[size - i + m] = coeffs[i - m]
        coeffs = [_dot_at(toeplitz, flipped[size - i :], support[: bisect_right(support, i)],
                          nvars)
                  for i in range(size + 1)]
    if coeffs[0] != one:
        raise LinnijError("internal: characteristic polynomial is not monic")
    return coeffs[1:]


# -- exact scalar matrices ----------------------------------------------------


def scalar_mat_mul(
    a: Sequence[Sequence[Coefficient]], b: Sequence[Sequence[Coefficient]]
) -> list[list[Coefficient]]:
    if len(a[0]) != len(b):
        raise DimensionMismatchError("shape mismatch in scalar product")
    cols = list(zip(*b))
    return [[_narrow(dot(row, col, 0)) for col in cols] for row in a]


def _eliminate(a, b):
    """Gauss-Jordan elimination of ``[a | b]`` on primitive integral rows:
    ``(det a, the rows' empty tails)`` when ``b`` has no columns, ``(None,
    a^-1 b)`` when it has some, and ``(0, None)`` when det a is 0.

    Each row is multiplied once by the least common denominator of its
    scalar entries, which makes them ints, or elements of Z[sqrt(d)] with
    int parts (:func:`~linnij.exactfield._integral_row`), and divided by its
    content, the gcd of those ints.  The step against the pivot p of
    column c replaces a row whose entry f there is nonzero by
    ``(p/g)*row - (f/g)*pivot_row``, g the content of p and f, and divides
    it by its content again; a row with f = 0 is left alone.  Only the
    columns right of the pivot change, and a row's own pivot when it lies
    left of c.  Only the rows below the pivot are reduced when ``b`` has no
    columns, as the determinant needs no more, and every other row
    otherwise.  Each solution entry is then one division by its row's
    pivot.  The determinant is the product of the pivots, times the
    contents divided out, over the denominators and the factors p/g
    multiplied in, with the sign of the row swaps.  Results are narrow."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise DimensionMismatchError("square matrix required")
    full = any(b)  # b has columns
    rows = []
    # det a = num / den * det(rows), kept for the determinant only
    num = den = 1
    integral = True  # every entry an int
    for left, right in zip(a, b):
        row = [*left, *right]
        if not all(type(v) is int for v in row):
            m, row = _integral_row([_exact(v) for v in row])
            den *= m
            integral = integral and all(type(v) is int for v in row)
        rows.append(row)
    content = gcd if integral else _content
    for row in rows:
        num *= _make_primitive(row, content)
    for c in range(n):
        k = next((r for r in range(c, n) if rows[r][c]), None)
        if k is None:
            return 0, None
        if k != c:
            rows[c], rows[k] = rows[k], rows[c]
            num = -num
        p = rows[c][c]
        tail = rows[c][c + 1 :]
        for r in range(0 if full else c + 1, n):
            row = rows[r]
            f = row[c]
            if r == c or not f:
                continue
            g = content(p, f)
            s, t = p // g, f // g
            if s == 1:
                row[c + 1 :] = [v - t * w if w else v
                                for v, w in zip(row[c + 1 :], tail)]
            else:
                row[c + 1 :] = [s * v - t * w if w else s * v
                                for v, w in zip(row[c + 1 :], tail)]
                if r < c:
                    row[r] = s * row[r]
            row[c] = 0
            h = _make_primitive(row, content)
            if not full:
                num *= h
                den *= s
    if full:
        return None, [[_quotient(v, row[c]) for v in row[n:]]
                      for c, row in enumerate(rows)]
    for c, row in enumerate(rows):
        num = num * row[c]
    return _quotient(num, den), [row[n:] for row in rows]


def _make_primitive(row, content) -> int:
    """Divide an integral row in place by its ``content``, and return it, or
    1 for a content of 0 or 1."""
    h = content(*row)
    if h < 2:
        return 1
    row[:] = [v // h for v in row]
    return h


def scalar_solve(a: Sequence[Sequence[Coefficient]], b: Sequence[Sequence[Coefficient]]
                 ) -> list[list[Coefficient]]:
    """a^-1 b for a square scalar ``a`` and a scalar ``b``, by
    :func:`_eliminate`.  Raises :class:`SingularMatrixError` when det a is
    0, and TypeError for an entry that is not an int, a Fraction or a
    Scalar."""
    solution = _eliminate(a, b)[1]
    if solution is None:
        raise SingularMatrixError("matrix is singular")
    return solution


def scalar_mat_inverse(matrix: Sequence[Sequence[Coefficient]]) -> list[list[Coefficient]]:
    """The inverse, as the solution against the identity."""
    n = len(matrix)
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return scalar_solve(matrix, identity)


def scalar_mat_det(matrix: Sequence[Sequence[Coefficient]]) -> Coefficient:
    """Determinant over the exact scalar field, by :func:`_eliminate`."""
    return _eliminate(matrix, [()] * len(matrix))[0]
