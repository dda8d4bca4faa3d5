"""Linear operator fields, Nijenhuis torsion, and left-symmetric algebras.

The bridge between the two sides is the right-multiplication operator of an
algebra: given structure constants a[i][j][k] (eta_i * eta_j = sum_k
a[i][j][k] eta_k), the operator field has entry (row k, column i) equal to
sum_j a[i][j][k] x_j, so the matrix acts on a tangent vector by
right-multiplying it with the base point.  That convention reproduces the
catalog matrices verbatim and is pinned down by tests, not assumed.

Indices on reported witnesses (violating triples, nonzero torsion
components) are 1-based, matching the basis labels eta_1..eta_n; internal
arrays are 0-based.
"""

from __future__ import annotations

import random
from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .polymatrix import (
    PolyMatrix, jacobian, scalar_mat_det, scalar_solve, seeded_points)
from .polyring import Poly, dot
from .exactfield import Scalar, ZERO
from .record import Record


class StructureConstants(Record):
    """Rank-3 array of exact scalars defining a bilinear product.

    ``a[i][j][k]`` is the eta_k-component of eta_i * eta_j: first index is
    the left factor, second the right factor, third the output component.
    """

    __slots__ = ("n", "a")

    def __init__(self, a: Sequence[Sequence[Sequence[Scalar]]]):
        n = len(a)
        coerced = []
        for plane in a:
            if len(plane) != n:
                raise DimensionMismatchError("structure constants must be cubic")
            rows = []
            for row in plane:
                if len(row) != n:
                    raise DimensionMismatchError("structure constants must be cubic")
                rows.append(tuple(v if isinstance(v, Scalar) else Scalar(v) for v in row))
            coerced.append(tuple(rows))
        super().__init__(n, tuple(coerced))

    @staticmethod
    def zero(n: int) -> "StructureConstants":
        return StructureConstants(
            [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        )

    @staticmethod
    def from_relations(
        n: int, relations: Iterable[tuple[int, int, int, object]]
    ) -> "StructureConstants":
        """Build from sparse 1-based relations (i, j, k, coefficient)."""
        a = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, coeff in relations:
            if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
                raise DimensionMismatchError(
                    "relation index out of range: (%d, %d, %d)" % (i, j, k)
                )
            value = coeff if isinstance(coeff, Scalar) else Scalar(coeff)
            a[i - 1][j - 1][k - 1] = a[i - 1][j - 1][k - 1] + value
        return StructureConstants(a)

    def relations(self) -> list[tuple[int, int, int, Scalar]]:
        """Nonzero entries as sorted 1-based (i, j, k, coefficient) tuples."""
        out = []
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    v = self.a[i][j][k]
                    if not v.is_zero():
                        out.append((i + 1, j + 1, k + 1, v))
        return out

    def __repr__(self):
        return "StructureConstants(n=%d, %d nonzero)" % (
            self.n,
            len(self.relations()),
        )


def lsa_to_operator(sc: StructureConstants) -> PolyMatrix:
    """Right-multiplication operator field of an algebra.

    Entry (k, i) is sum_j a[i][j][k] x_j; every entry is linear homogeneous.
    """
    n = sc.n
    xs = [Poly.variable(n, j) for j in range(n)]
    zero = Poly.zero(n)
    return PolyMatrix([
        [dot([row[k] for row in sc.a[i]], xs, zero) for i in range(n)]
        for k in range(n)
    ])


def operator_is_linear(operator: PolyMatrix) -> bool:
    """True when every entry is homogeneous of degree one (or zero)."""
    return all(
        p.is_zero() or p.is_homogeneous(1)
        for row in operator.entries
        for p in row
    )


def operator_to_lsa(operator: PolyMatrix) -> StructureConstants:
    """Recover structure constants a[i][j][k] = d(entry (k,i))/dx_j.

    Exact inverse of :func:`lsa_to_operator`; rejects operators with a
    nonlinear or affine entry.
    """
    if not operator.is_square() or operator.rows != operator.nvars:
        raise DimensionMismatchError("operator must be n x n over n variables")
    if not operator_is_linear(operator):
        raise DimensionMismatchError("operator entries must be linear homogeneous")
    n = operator.rows
    a = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j, coeff in enumerate(operator.entries[k][i].linear_coefficients()):
                a[i][j][k] = coeff
    return StructureConstants(a)


class TorsionTensor(Record):
    """All n^3 torsion components of an operator field, computed verbatim.

    Nothing is deduplicated: the j<->k antisymmetry is a property the tests
    check, not one the storage assumes.
    """

    __slots__ = ("n", "nvars", "comp")

    def component(self, i: int, j: int, k: int) -> Poly:
        """Component with 1-based indices (upper index first)."""
        return self.comp[i - 1][j - 1][k - 1]

    def is_zero(self) -> bool:
        return all(
            p.is_zero() for plane in self.comp for row in plane for p in row
        )

    def first_nonzero(self) -> tuple[int, int, int, Poly] | None:
        """First nonvanishing component as 1-based (i, j, k, polynomial)."""
        for i in range(self.n):
            for j in range(self.n):
                for k in range(self.n):
                    p = self.comp[i][j][k]
                    if not p.is_zero():
                        return (i + 1, j + 1, k + 1, p)
        return None


def torsion(operator: PolyMatrix) -> TorsionTensor:
    """Coordinate torsion of a polynomial operator field, as three sums.

    Component (i, j, k) is, summed over s,

        L^s_j dL^i_k/dx^s - L^s_k dL^i_j/dx^s
        - L^i_s (dL^s_k/dx^j - dL^s_j/dx^k)

    where L^i_j is the entry in row i, column j.  The first two sums are
    the derivatives of L^i_k along column j and of L^i_j along column k;
    the curl in the third is formed for every ordered pair (j, k).  Each of
    the n^3 components is computed on its own.  Entries need not be linear.
    """
    if not operator.is_square() or operator.rows != operator.nvars:
        raise DimensionMismatchError("operator must be n x n over n variables")
    n = operator.rows
    L = operator.entries
    zero = Poly.zero(n)
    grad = [[[L[i][j].partial(s) for s in range(n)] for j in range(n)] for i in range(n)]
    # along[j][i][k] = sum_s L^s_j dL^i_k/dx^s
    along = [[[dot(col, grad[i][k], zero) for k in range(n)] for i in range(n)]
             for col in zip(*L)]
    # curl[j][k][s] = dL^s_k/dx^j - dL^s_j/dx^k
    curl = [[[grad[s][k][j] - grad[s][j][k] for s in range(n)] for k in range(n)]
            for j in range(n)]
    comp = [
        [
            [along[j][i][k] - along[k][i][j] - dot(L[i], curl[j][k], zero)
             for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]
    return TorsionTensor(n, operator.nvars, comp)


class LsaCheck(Record):
    """Outcome of the associator-symmetry test, with a violating triple."""

    __slots__ = ("ok", "witness")

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "LsaCheck(ok)"
        return "LsaCheck(violated at %r)" % (self.witness,)


def _associator(sc: StructureConstants, i: int, j: int, k: int) -> list[Scalar]:
    """(eta_i * eta_j) * eta_k - eta_i * (eta_j * eta_k), as a vector."""
    a = sc.a
    return [
        dot(a[i][j], [plane[k][m] for plane in a], ZERO)
        - dot(a[j][k], [row[m] for row in a[i]], ZERO)
        for m in range(sc.n)
    ]


def is_left_symmetric(sc: StructureConstants) -> LsaCheck:
    """Check associator symmetry in the first two arguments on basis triples.

    Bilinearity makes basis triples sufficient.  The witness, if any, is the
    first (i, j, k) in lexicographic order with A(i,j,k) != A(j,i,k),
    reported 1-based.
    """
    n = sc.n
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if _associator(sc, i, j, k) != _associator(sc, j, i, k):
                    return LsaCheck(False, (i + 1, j + 1, k + 1))
    return LsaCheck(True, None)


def change_coordinates(
    operator: PolyMatrix, change: Sequence[Sequence[Scalar]]
) -> PolyMatrix:
    """Conjugate an operator field by the linear change x = T y.

    Returns T^{-1} L(T y) T; raises on singular T.  For a linear operator
    this is simultaneously the basis change of the underlying algebra.
    """
    t = [
        [v if isinstance(v, Scalar) else Scalar(v) for v in row] for row in change
    ]
    substituted = operator.substitute_linear(t)
    zero = Poly.zero(substituted.nvars)
    left = scalar_solve(t, substituted.entries)
    return PolyMatrix([[dot(row, col, zero) for col in zip(*t)] for row in left])


def direct_sum(a: PolyMatrix, b: PolyMatrix) -> PolyMatrix:
    """Block-diagonal operator on the disjoint union of variables.

    Variables of ``b`` are shifted past those of ``a``.
    """
    na, nb = a.nvars, b.nvars
    n = na + nb
    zero = Poly.zero(n)
    rows = []
    for i in range(a.rows):
        rows.append(
            [a.entries[i][j].embed(n) for j in range(a.cols)] + [zero] * nb
        )
    for i in range(b.rows):
        rows.append(
            [zero] * na + [b.entries[i][j].embed(n, na) for j in range(b.cols)]
        )
    return PolyMatrix(rows)


def is_differentially_nondegenerate(sigmas: Sequence[Poly]) -> bool:
    """True when the Jacobian determinant of the sigmas is not the zero
    polynomial, i.e. the differentials are independent almost everywhere.

    The Jacobian is first evaluated (:meth:`PolyMatrix.at`) at the
    :func:`~linnij.polymatrix.seeded_points` one point at a time; a nonzero
    exact determinant at one of them proves the symbolic one nonzero
    (Schwartz, J. ACM 1980) and ends the search.  Only when every point
    gives zero is the symbolic determinant expanded, so both answers are
    exact.
    """
    jac = jacobian(sigmas)
    return (any(map(scalar_mat_det, jac.at(seeded_points(jac.nvars))))
            or not jac.determinant().is_zero())


def random_structure_constants(
    rng: random.Random, n: int, low: int = -2, high: int = 2, density: float = 1.0
) -> StructureConstants:
    """Seeded random structure constants with small integer entries.

    ``density`` < 1 zeroes entries at random, producing the sparser algebras
    that are more likely to satisfy left-symmetry by accident; dense draws
    are almost always violations.
    """
    a = []
    for i in range(n):
        plane = []
        for j in range(n):
            row = []
            for k in range(n):
                if density < 1.0 and rng.random() > density:
                    row.append(ZERO)
                else:
                    row.append(Scalar(rng.randint(low, high)))
            plane.append(row)
        a.append(plane)
    return StructureConstants(a)
