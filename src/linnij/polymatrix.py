"""Matrices of polynomials and exact scalar linear algebra.

Determinants and adjugates are computed fraction-free (Bareiss): every
intermediate entry is a minor of the input, and each division step is exact
in the polynomial ring.  Characteristic coefficients use Berkowitz's
division-free algorithm instead, in the operator's own ring.  Bareiss stays
for the determinant because Berkowitz swells more on dense Jacobians such
as those of the sigmas.  A plain cofactor expansion is kept alongside as an
independent cross-check route; callers that verify results should compare
against it rather than trust one path.

Every other sum of products here, the matrix products included, goes
through :func:`linnij.polyring.dot`, which skips zero factors.
"""

from __future__ import annotations

from typing import Sequence

from .errors import DimensionMismatchError, LinnijError, SingularMatrixError
from .polyring import DivisibilityFailure, Poly, dot, exact_divide
from .exactfield import ONE, ZERO, Scalar


class PolyMatrix:
    """A rectangular matrix of :class:`Poly` entries over one shared ring."""

    __slots__ = ("rows", "cols", "nvars", "entries")

    def __init__(self, entries: Sequence[Sequence[Poly]]):
        entries = [list(row) for row in entries]
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
        object.__setattr__(self, "rows", len(entries))
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("PolyMatrix is immutable")

    def __getitem__(self, key):
        i, j = key
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(tuple(tuple(row) for row in self.entries))

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.cols != other.rows or self.nvars != other.nvars:
            raise DimensionMismatchError("shape or ring mismatch in product")
        zero = Poly.zero(self.nvars)
        cols = list(zip(*other.entries))
        return PolyMatrix([[dot(row, col, zero) for col in cols] for row in self.entries])

    def substitute_linear(self, matrix: Sequence[Sequence[Scalar]]) -> "PolyMatrix":
        rows = [list(r) for r in matrix]
        return PolyMatrix([[p.substitute_linear(rows) for p in row] for row in self.entries])

    # -- determinants --------------------------------------------------------

    def _require_square(self):
        if not self.is_square():
            raise DimensionMismatchError("square matrix required")

    def determinant(self) -> Poly:
        """Fraction-free (Bareiss) determinant; divisions are exact minors."""
        self._require_square()
        n = self.rows
        a = [row[:] for row in self.entries]
        sign = 1
        prev = Poly.constant(self.nvars, ONE)
        for k in range(n - 1):
            pivot_row = None
            for r in range(k, n):
                if not a[r][k].is_zero():
                    pivot_row = r
                    break
            if pivot_row is None:
                return Poly.zero(self.nvars)
            if pivot_row != k:
                a[k], a[pivot_row] = a[pivot_row], a[k]
                sign = -sign
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    numerator = a[k][k] * a[i][j] - a[i][k] * a[k][j]
                    quotient = exact_divide(numerator, prev)
                    if isinstance(quotient, DivisibilityFailure):
                        raise LinnijError("internal: fraction-free step failed to divide")
                    a[i][j] = quotient
                a[i][k] = Poly.zero(self.nvars)
            prev = a[k][k]
        result = a[n - 1][n - 1]
        return result if sign > 0 else -result

    def determinant_cofactor(self) -> Poly:
        """Cofactor-expansion determinant, the independent slow route."""
        self._require_square()
        return _cofactor_det(self.entries)

    def minor(self, drop_row: int, drop_col: int) -> "PolyMatrix":
        rows = [
            [p for j, p in enumerate(row) if j != drop_col]
            for i, row in enumerate(self.entries)
            if i != drop_row
        ]
        return PolyMatrix(rows)

    def adjugate(self) -> "PolyMatrix":
        """Transposed cofactor matrix, satisfying M @ adj(M) == det(M) * I."""
        self._require_square()
        n = self.rows
        if n == 1:
            return PolyMatrix([[Poly.constant(self.nvars, ONE)]])
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(n):
                cof = self.minor(i, j).determinant()
                if (i + j) % 2:
                    cof = -cof
                out[j][i] = cof  # transposed position
        return PolyMatrix(out)  # type: ignore[arg-type]


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


def scalar_identity(n: int) -> list[list[Scalar]]:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def scalar_mat_mul(
    a: Sequence[Sequence[Scalar]], b: Sequence[Sequence[Scalar]]
) -> list[list[Scalar]]:
    if len(a[0]) != len(b):
        raise DimensionMismatchError("shape mismatch in scalar product")
    cols = list(zip(*b))
    return [[dot(row, col, ZERO) for col in cols] for row in a]


def scalar_mat_inverse(matrix: Sequence[Sequence[Scalar]]) -> list[list[Scalar]]:
    """Gauss-Jordan inverse over the exact scalar field."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise DimensionMismatchError("square matrix required")
    a = [list(row) for row in matrix]
    inv = scalar_identity(n)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            raise SingularMatrixError("matrix is singular")
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col].inverse()
        a[col] = [v * scale for v in a[col]]
        inv[col] = [v * scale for v in inv[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
            inv[r] = [v - factor * w for v, w in zip(inv[r], inv[col])]
    return inv


def scalar_mat_det(matrix: Sequence[Sequence[Scalar]]) -> Scalar:
    n = len(matrix)
    a = [list(row) for row in matrix]
    det = ONE
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col]
        scale = a[col][col].inverse()
        for r in range(col + 1, n):
            if a[r][col].is_zero():
                continue
            factor = a[r][col] * scale
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return det
