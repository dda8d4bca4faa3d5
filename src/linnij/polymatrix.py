"""Matrices of polynomials and exact scalar linear algebra.

One elimination per coefficient domain.  Over polynomials, a fraction-free
elimination (Bareiss) reduces a matrix one row at a time against the pivot
rows above it; every intermediate entry is a minor of the input, so each
division step is exact.  It gives the polynomial determinant, each cofactor
of the adjugate and the dependence test :meth:`PolyMatrix.dependent_rows`.
Over the scalar field, one Gauss-Jordan elimination gives the determinant,
the inverse and :func:`scalar_solve`.  Characteristic coefficients use
Berkowitz's division-free algorithm instead, in the operator's own ring;
Bareiss stays for the determinant because Berkowitz swells more on dense
Jacobians such as those of the sigmas.  A plain cofactor expansion is kept
alongside as an independent cross-check route; callers that verify results
should compare against it rather than trust one path.

Every other sum of products here, the matrix products included, goes
through :func:`linnij.polyring.dot`, which skips zero factors.

Certificates by evaluation use :meth:`PolyMatrix.at` and :func:`seeded_points`:
a nonzero exact value at a point proves a polynomial nonzero (Schwartz,
J. ACM 1980); a zero value proves nothing.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatchError, LinnijError, SingularMatrixError
from .polyring import (
    DivisibilityFailure, Poly, dot, exact_divide, powers_of, top_exponents, value_at)
from .exactfield import ONE, ZERO, Scalar
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
        zero = Poly.zero(self.nvars)
        cols = list(zip(*other.entries))
        return PolyMatrix([[dot(row, col, zero) for col in cols] for row in self.entries])

    def substitute_linear(self, matrix: Sequence[Sequence[Scalar]]) -> "PolyMatrix":
        rows = [list(r) for r in matrix]
        return PolyMatrix([[p.substitute_linear(rows) for p in row] for row in self.entries])

    def at(self, points: Iterable[Sequence[Scalar]]) -> Iterator[list[list[Scalar]]]:
        """The value of every entry, row by row, at each of ``points`` in
        turn, computed as it is asked for.  Each point's power table reaches
        the matrix's highest exponent of each variable, found once."""
        top = top_exponents(self.nvars, (p for row in self.entries for p in row))
        for point in points:
            if len(point) != self.nvars:
                raise DimensionMismatchError("point has wrong length")
            powers = [powers_of(v, e) for v, e in zip(point, top)]
            yield [[value_at(p, powers) for p in row] for row in self.entries]

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
            return PolyMatrix([[Poly.constant(self.nvars, ONE)]])
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
    nvars = polys[0].nvars
    indices = list(range(nvars)) if wrt is None else list(wrt)
    return PolyMatrix([[p.partial(j) for j in indices] for p in polys])


_COORDINATES = tuple(Scalar(v) for v in range(-50, 51))  # made once, drawn often


def seeded_points(nvars: int) -> Iterator[list[Scalar]]:
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
    one = Poly.constant(nvars, ONE)
    rows = []
    for i in range(n):
        row = [zero] * n
        row[0] = -sigmas[i]
        if i + 1 < n:
            row[i + 1] = one
        rows.append(row)
    return PolyMatrix(rows)


def charpoly_sigmas(operator: PolyMatrix) -> list[Poly]:
    """Coefficients sigma_1..sigma_n of det(t*Id - L), by Berkowitz.

    Division-free (S. J. Berkowitz, Inf. Process. Lett. 18, 1984): the
    coefficient vector of the trailing k x k principal submatrix is grown
    one row and column at a time by a lower-triangular Toeplitz product
    whose entries are 1, -a, -R C, -R M C, -R M^2 C, ...  with a, R, C the
    new diagonal entry, row and column and M the trailing block.  Only ring
    multiplications happen, in the operator's own ring, O(n^4) of them.
    The t^n coefficient is checked to be exactly one.
    """
    operator._require_square()
    n = operator.rows
    a = operator.entries
    zero = Poly.zero(operator.nvars)
    one = Poly.constant(operator.nvars, ONE)
    coeffs = [one, -a[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        row = a[k][k + 1 :]
        toeplitz = [one, -a[k][k]]
        vec = [a[i][k] for i in range(k + 1, n)]
        for power in range(n - 1 - k):
            if power:
                vec = [dot(a[i][k + 1 :], vec, zero) for i in range(k + 1, n)]
            toeplitz.append(-dot(row, vec, zero))
        coeffs = [
            dot(toeplitz[i::-1], coeffs[: i + 1], zero)
            for i in range(len(coeffs) + 1)
        ]
    if coeffs[0] != one:
        raise LinnijError("internal: characteristic polynomial is not monic")
    return coeffs[1:]


# -- exact scalar matrices ----------------------------------------------------


def scalar_mat_mul(
    a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]
) -> list[list[Scalar]]:
    if len(a[0]) != len(b):
        raise DimensionMismatchError("shape mismatch in scalar product")
    cols = list(zip(*b))
    return [[dot(row, col, ZERO) for col in cols] for row in a]


def _gauss_jordan(a, b):
    """Eliminate ``[a | b]`` over the scalar field; return (det a, a^-1 b),
    the solution None when det a is 0.  Each pivot row is scaled by one
    inverse of its pivot and cleared from every other row, or only from the
    rows below when ``b`` has no columns, as the determinant needs no more.
    Zero entries are skipped; only columns right of the pivot are updated."""
    n = len(a)
    if any(len(row) != n for row in a) or len(b) != n:
        raise DimensionMismatchError("square matrix required")
    rows = [list(left) + list(right) for left, right in zip(a, b)]
    full = any(b)  # b has columns
    det = ONE
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return ZERO, None
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det = det * pivot
        scale = pivot.inverse()
        tail = [v * scale if v else v for v in rows[c][c + 1 :]]
        rows[c][c + 1 :] = tail
        for r in range(0 if full else c + 1, n):
            f = rows[r][c]
            if r == c or not f:
                continue
            rows[r][c + 1 :] = [v - f * w if w else v
                                for v, w in zip(rows[r][c + 1 :], tail)]
    return det, [row[n:] for row in rows]


def scalar_solve(a: Sequence[Sequence[Scalar]], b: Sequence[Sequence]) -> list[list]:
    """a^-1 b for a square scalar ``a``; the entries of ``b`` may be scalars
    or polynomials.  Raises :class:`SingularMatrixError` when det a is 0."""
    solution = _gauss_jordan(a, b)[1]
    if solution is None:
        raise SingularMatrixError("matrix is singular")
    return solution


def scalar_mat_inverse(matrix: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """The inverse, as the solution against the identity."""
    n = len(matrix)
    return scalar_solve(matrix, [[ONE if i == j else ZERO for j in range(n)]
                                 for i in range(n)])


def scalar_mat_det(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    """Determinant over the exact scalar field, by :func:`_gauss_jordan`."""
    return _gauss_jordan(matrix, [()] * len(matrix))[0]
