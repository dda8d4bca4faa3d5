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
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import DimensionMismatchError
from .polymatrix import (
    PolyMatrix, jacobian, scalar_mat_det, scalar_mat_inverse, seeded_points)
from .exactfield import _narrow
from .polyring import Coefficient, Poly, _exact, _linear_form, _torsion_rows, dot
from .record import Record


class StructureConstants(Record):
    """The structure constants of a bilinear product, as its nonzero entries.

    ``a[i][j][k]`` is the eta_k-component of eta_i * eta_j: first index is
    the left factor, second the right factor, third the output component.
    The record holds ``n`` and ``entries``, the nonzero ``a[i][j][k]`` as
    1-based ``(i, j, k, coefficient)`` tuples sorted by ``(i, j, k)``, each
    coefficient in its narrowest exact type; equality,
    hashing and :meth:`relations` read that tuple, and the dense cube
    :attr:`a` is built from it when asked for.
    """

    __slots__ = ("n", "entries")

    def __init__(self, a: Sequence[Sequence[Sequence[Coefficient]]]):
        """From the dense cube ``a``; every entry is an ``int``, a
        ``Fraction`` or a ``Scalar``."""
        n = len(a)
        entries = []
        for i, plane in enumerate(a, 1):
            if len(plane) != n:
                raise DimensionMismatchError("structure constants must be cubic")
            for j, row in enumerate(plane, 1):
                if len(row) != n:
                    raise DimensionMismatchError("structure constants must be cubic")
                for k, v in enumerate(row, 1):
                    v = _exact(v)
                    if v:
                        entries.append((i, j, k, v))
        super().__init__(n, tuple(entries))

    @staticmethod
    def _sparse(n: int, entries) -> "StructureConstants":
        """From nonzero 1-based ``(i, j, k, coefficient)`` entries, already
        checked and narrow, with no index triple repeated."""
        out = object.__new__(StructureConstants)
        Record.__init__(out, n, tuple(sorted(entries, key=itemgetter(0, 1, 2))))
        return out

    @staticmethod
    def zero(n: int) -> "StructureConstants":
        return StructureConstants._sparse(n, ())

    @staticmethod
    def from_relations(
        n: int, relations: Iterable[tuple[int, int, int, object]]
    ) -> "StructureConstants":
        """Build from sparse 1-based relations (i, j, k, coefficient); the
        coefficients of a repeated (i, j, k) are summed.  Each index must be
        an ``int`` in 1..n."""
        sums = {}
        for i, j, k, coeff in relations:
            if not all(type(x) is int and 1 <= x <= n for x in (i, j, k)):
                raise DimensionMismatchError(
                    "relation index (%r, %r, %r) is not an int in 1..%d"
                    % (i, j, k, n))
            value = _exact(coeff)
            key = (i, j, k)
            sums[key] = _narrow(sums[key] + value) if key in sums else value
        return StructureConstants._sparse(
            n, [key + (v,) for key, v in sums.items() if v])

    @property
    def a(self) -> tuple:
        """The dense cube, ``a[i][j][k]`` 0-based, zeros included."""
        n = self.n
        a = [[[0] * n for _ in range(n)] for _ in range(n)]
        for i, j, k, v in self.entries:
            a[i - 1][j - 1][k - 1] = v
        return tuple(tuple(tuple(row) for row in plane) for plane in a)

    def relations(self) -> list[tuple[int, int, int, Coefficient]]:
        """Nonzero entries as sorted 1-based (i, j, k, coefficient) tuples."""
        return list(self.entries)

    def __repr__(self):
        return "StructureConstants(n=%d, %d nonzero)" % (self.n, len(self.entries))


def lsa_to_operator(sc: StructureConstants) -> PolyMatrix:
    """Right-multiplication operator field of an algebra.

    Entry (k, i) is sum_j a[i][j][k] x_j; every entry is linear homogeneous.
    Each entry with a nonzero a[i][j][k] is one linear form built from
    those alone, and every other entry is one shared zero, so the work
    follows the nonzero constants and the n^2 entries, never the n^3 slots.
    """
    n = sc.n
    zero = Poly.zero(n)
    cells = {}  # (k, i) -> [(j, a[i][j][k])], 0-based
    for i, j, k, v in sc.entries:
        cells.setdefault((k - 1, i - 1), []).append((j - 1, v))
    return PolyMatrix([
        [_linear_form(n, cells[k, i]) if (k, i) in cells else zero for i in range(n)]
        for k in range(n)
    ])


def operator_is_linear(operator: PolyMatrix) -> bool:
    """True when every entry is homogeneous of degree one (or zero)."""
    return all(
        p.is_zero() or p.is_homogeneous(1)
        for row in operator.entries
        for p in row
    )


def _check_square(operator: PolyMatrix):
    if not operator.is_square() or operator.rows != operator.nvars:
        raise DimensionMismatchError("operator must be n x n over n variables")


def operator_to_lsa(operator: PolyMatrix) -> StructureConstants:
    """Recover structure constants a[i][j][k] = d(entry (k,i))/dx_j.

    Exact inverse of :func:`lsa_to_operator`; rejects operators with a
    nonlinear or affine entry.  Only the nonzero coefficients of the nonzero
    entries are read.
    """
    _check_square(operator)
    entries = []
    for k, row in enumerate(operator.entries, 1):
        for i, p in enumerate(row, 1):
            if not p:
                continue
            coeffs = p.linear_terms()
            if coeffs is None:
                raise DimensionMismatchError(
                    "operator entries must be linear homogeneous")
            entries.extend((i, j + 1, k, c) for j, c in coeffs.items())
    return StructureConstants._sparse(operator.rows, entries)


class TorsionTensor(Record):
    """All n^3 torsion components of an operator field.

    Built by :func:`torsion` from the row kernel that
    :func:`torsion_witness` stops early.  The kernel forms only the nonzero
    components with j < k; the others are stored as their exact j<->k
    images, component (i, k, j) as the negation of (i, j, k) and (i, j, j)
    as zero, and every component the kernel leaves out as zero.
    """

    __slots__ = ("n", "nvars", "comp")

    def component(self, i: int, j: int, k: int) -> Poly:
        """Component with 1-based indices (upper index first)."""
        return self.comp[i - 1][j - 1][k - 1]

    def is_zero(self) -> bool:
        return all(
            p.is_zero() for plane in self.comp for row in plane for p in row
        )


def torsion(operator: PolyMatrix) -> TorsionTensor:
    """Coordinate torsion of a polynomial operator field, as three sums.

    Component (i, j, k) is, summed over s,

        L^s_j dL^i_k/dx^s - L^s_k dL^i_j/dx^s
        - L^i_s (dL^s_k/dx^j - dL^s_j/dx^k)

    where L^i_j is the entry in row i, column j.  The formula is exactly
    antisymmetric in j and k, so only the components with j < k are
    computed; (i, k, j) is stored as the negation of (i, j, k) and (i, j, j)
    as zero.  The kernel, ``polyring._torsion_rows``, works one row i at a
    time and forms only the products of two nonzero terms: each entry
    against the derivatives it pairs with, and each nonzero entry of row i
    against the curls in the last sum, each formed once for all rows.
    :func:`torsion_witness` stops after the first row with a nonzero
    component.  Entries need not be linear.
    """
    _check_square(operator)
    n = operator.rows
    zero = Poly.zero(n)
    comp = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, components in enumerate(_torsion_rows(operator.entries)):
        for j, k, p in components:
            comp[i][j][k] = p
            comp[i][k][j] = -p
    return TorsionTensor(n, operator.nvars, comp)


def torsion_witness(operator: PolyMatrix) -> tuple[int, int, int, Poly] | None:
    """The first nonzero torsion component in lexicographic order, as
    1-based ``(i, j, k, polynomial)``, or None when the torsion vanishes.

    By antisymmetry the first nonzero component has j < k: it is the first
    component the kernel of :func:`torsion` finds in the first row that has
    one, and no row past that one is computed.
    """
    _check_square(operator)
    for i, components in enumerate(_torsion_rows(operator.entries)):
        if components:
            j, k, p = components[0]
            return (i + 1, j + 1, k + 1, p)
    return None


class LsaCheck(Record):
    """Outcome of the associator-symmetry test, with a violating triple."""

    __slots__ = ("ok", "witness")

    def __bool__(self):
        return self.ok

    def __repr__(self):
        if self.ok:
            return "LsaCheck(ok)"
        return "LsaCheck(violated at %r)" % (self.witness,)


def _associator(a, i: int, j: int, k: int) -> list[Coefficient]:
    """(eta_i * eta_j) * eta_k - eta_i * (eta_j * eta_k), as a vector, from
    the dense cube ``a``."""
    return [
        dot(a[i][j], [plane[k][m] for plane in a], 0)
        - dot(a[j][k], [row[m] for row in a[i]], 0)
        for m in range(len(a))
    ]


def is_left_symmetric(sc: StructureConstants) -> LsaCheck:
    """Check associator symmetry in the first two arguments on basis triples.

    Bilinearity makes basis triples sufficient.  The witness, if any, is the
    first (i, j, k) in lexicographic order with A(i,j,k) != A(j,i,k),
    reported 1-based.
    """
    n = sc.n
    a = sc.a
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                if _associator(a, i, j, k) != _associator(a, j, i, k):
                    return LsaCheck(False, (i + 1, j + 1, k + 1))
    return LsaCheck(True, None)


def change_coordinates(
    operator: PolyMatrix, change: Sequence[Sequence[Coefficient]]
) -> PolyMatrix:
    """Conjugate an operator field by the linear change x = T y.

    Returns T^{-1} L(T y) T: L(T y) is
    :meth:`PolyMatrix.substitute_linear`, and the one polynomial matrix
    product multiplies it by T^{-1}, from
    :func:`~linnij.polymatrix.scalar_mat_inverse`, and by T, each held as a
    matrix of constants.  Raises :class:`~linnij.errors.SingularMatrixError`
    on a singular T.  For a linear operator this is simultaneously the
    basis change of the underlying algebra.
    """
    t = [[_exact(v) for v in row] for row in change]
    substituted = operator.substitute_linear(t)
    nvars = substituted.nvars

    def constant(matrix):
        return PolyMatrix([[Poly.constant(nvars, v) for v in row] for row in matrix])

    return constant(scalar_mat_inverse(t)) @ substituted @ constant(t)


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
    return _nondegenerate_jacobian(jacobian(sigmas))


def _nondegenerate_jacobian(jac: PolyMatrix) -> bool:
    """The certificate of :func:`is_differentially_nondegenerate`, on a
    Jacobian already built."""
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
                    row.append(0)
                else:
                    row.append(rng.randint(low, high))
            plane.append(row)
        a.append(plane)
    return StructureConstants(a)
