"""Reconstruction of operators from sigma sets and the linearity systems.

Given sigmas (sigma_1, ..., sigma_n), form the Jacobian J and the companion
matrix S; the operator with these characteristic coefficients satisfies
J L = S J, and when det J is not zero it is the unique solution
L = adj(J) S J / det(J).  Two paths find it.

The symbolic path stays in the polynomial ring: the candidate is carried as
a matrix of numerators adj(J) S J over the shared denominator det(J), and an
operator exists iff the denominator divides every numerator exactly.  It
also names the entries that fail to divide, and serves the linearity
systems below.

The point path serves sets of at least four sigmas, where the adjugate of
n^2 cofactor determinants makes the symbolic path slow.  It evaluates,
solves and certifies: at integer points p it solves
J(p) L(p) = S(p) J(p) exactly, reads the linear operator
L = sum_k x_k A_k off a base point p and the n points p + e_k, each one
higher in one coordinate, and keeps that candidate only when J L == S J
holds as a polynomial identity.  The identity is the proof: an invertible
J(p) shows that det J is not zero (Schwartz, J. ACM 1980), so the
candidate is the unique solution; the base points, drawn from
:func:`~linnij.polymatrix.seeded_points` as for the nondegeneracy
certificate, only decide how fast it is found.  Every other outcome
(sigmas that no linear operator has, no base point at which all n + 1
points give an invertible J(p), the identity failing, mixed radicands) runs
the symbolic path, which gives the same answer or diagnosis as it does
alone.  The point path never forms det J.

For the classification runs the sigmas carry symbolic coefficients.  Those
parameters are ordinary variables of the same sparse-polynomial ring,
appended after the geometric ones.  The linear-form unknowns alpha_ij are
appended after the parameters by generate_linearity_system only, so every
polynomial of a LinearitySystem lives over its ``names``; asking "which
choices of coefficients make entry (r, c) linear" then becomes exact
coefficient extraction over the geometric monomials.

A system's listing (:meth:`LinearitySystem.to_text`) is read back by
:func:`parse_system`.  Its four headers come first, once each; a body as
``to_text`` writes it is then read by a fast path, a few string methods
and the flat reader per line, each distinct entry, position and head
monomial checked once, and any other body by the line reader, which
gives every listing error and its line number.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import takewhile
from typing import Mapping, Sequence

from .errors import (
    DependentSigmasError,
    DimensionMismatchError,
    FormatError,
    LinnijError,
    RadicandMismatchError,
    SingularMatrixError,
)
from .polymatrix import (
    PolyMatrix,
    companion_matrix,
    jacobian,
    scalar_mat_inverse,
    scalar_mat_mul,
    scalar_solve,
    seeded_points,
)
from .polyring import (
    _MIN_WIDTH, Coefficient, DivisibilityFailure, Poly, _exact, _field_mask,
    _linear_form, _power_table, _reciprocal, _value_at, dot, exact_divide,
    exponent_sets, grlex_key)
from .exactfield import _narrow, scalar_sqrt
from .record import Record
from .textio import (
    _format_terms, _int_literal, _name_table, _parse_monomial, _parse_poly,
    _read_flat, format_monomial, format_poly, parse_poly, parse_scalar)


# -- sigma -> operator --------------------------------------------------------


class ReconstructionResult(Record):
    """The operator recovered from a sigma set, or where it fails.

    ``linear_part`` is the operator L with J L = S J when it is polynomial;
    otherwise it is None and ``failures`` lists the 1-based positions
    (row, col, remainder) where division leaves a remainder.  ``pieces``
    holds the symbolic path's (numerators, denominator), adj(J) S J and
    det(J), or None when the point path found L.
    """

    __slots__ = ("linear_part", "failures", "pieces")


def reconstruction_pieces(sigmas: Sequence[Poly]) -> tuple[PolyMatrix, Poly]:
    """Numerator matrix adj(J) S J and denominator det(J), with J taken
    by the first len(sigmas) ring variables.  A zero det(J) raises
    :class:`DependentSigmasError` naming J's dependent rows, 1-based."""
    j = jacobian(sigmas, wrt=range(len(sigmas)))
    q = j.determinant()
    if q.is_zero():
        raise DependentSigmasError([i + 1 for i in j.dependent_rows()])
    s = companion_matrix(list(sigmas))
    return j.adjugate() @ s @ j, q


#: The point path runs for sets of at least this many sigmas, a property of
#: the input alone.  In-process best times of three runs, symbolic -> point
#: path, in ms (2-CPU Xeon, Python 3.11, packed exponent keys, point values
#: in int and Fraction, elimination on primitive integral rows, candidate
#: entries built on the variables' keys), at n = 3, 4, 5 and 6: blocks
#: 0.34 -> 0.35, 2.2 -> 0.67, 14 -> 1.2 and 445 -> 2.6; L2 0.29 -> 0.33,
#: 0.86 -> 0.52, 2.4 -> 0.76 and 5.9 -> 1.1; L1 0.23 -> 0.35, 0.55 -> 0.52,
#: 1.3 -> 0.82 and 3.2 -> 1.1; the 23 catalog sets, all with n <= 3, 13.9
#: -> 13.2.  Below four sigmas the point path loses on L1 and L2 and ties
#: on blocks; from four on every set gains.
POINT_PATH_MIN_SIGMAS = 4


def _operator_by_points(sigmas: Sequence[Poly]) -> PolyMatrix | None:
    """The linear operator L = sum_k x_k A_k with J L = S J, read off its
    values at integer points and kept when the identity holds; None when no
    candidate turns up or the identity fails.

    L(p) solves J(p) L(p) = S(p) J(p).  The base point p is the first
    :func:`~linnij.polymatrix.seeded_points` point at which J is invertible
    at p and at every p + e_k, the point one higher in coordinate k; then
    A_k = L(p + e_k) - L(p).  The n + 1 points are evaluated by one
    :meth:`~linnij.polymatrix.PolyMatrix.at` call, which stops at the first
    singular J.  A linear L has sigma_i homogeneous of degree i, so other
    sigmas return None at once.  The values at the points, and with them
    S(p) J(p), L(p) and the slopes, are in the ring's narrow types.
    """
    n = len(sigmas)
    if not all(s.is_homogeneous(i) for i, s in enumerate(sigmas, start=1)):
        return None
    j = jacobian(sigmas)
    # row i: sigma_i, then its gradient; one evaluation gives S(p) and J(p)
    sigmas_and_j = PolyMatrix([(s,) + row for s, row in zip(sigmas, j.entries)])
    zeros = [0] * n

    def solved(values):
        """The entries of L(p), row by row, from the values of
        ``sigmas_and_j`` at p, or None if J(p) is singular."""
        sp = [row[0] for row in values]
        jp = [row[1:] for row in values]
        # S(p) J(p) by the companion structure: row i is
        # J_{i+1}(p) - sigma_i(p) J_0(p), with J_n = 0
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
    # slopes[k]: the entries of A_k, row by row
    slopes = [[_narrow(v - w) if v or w else v for v, w in zip(at_point, at_base)]
              for at_point in found[1:]]
    candidate = PolyMatrix([
        [_linear_form(n, enumerate(slope[r * n + c] for slope in slopes)) for c in range(n)]
        for r in range(n)])
    if j @ candidate != companion_matrix(sigmas) @ j:
        return None
    return candidate


def reconstruct_operator(sigmas: Sequence[Poly]) -> ReconstructionResult:
    """Recover the operator with the given characteristic coefficients.

    The sigmas must live in a ring of exactly len(sigmas) variables.  Sets
    of at least :data:`POINT_PATH_MIN_SIGMAS` sigmas try the point path
    first; see the module docstring.  Raises when the sigmas are
    functionally dependent, naming the dependent entries.
    """
    n = len(sigmas)
    if n == 0:
        raise DimensionMismatchError("empty sigma set")
    if n != sigmas[0].nvars:
        raise DimensionMismatchError(
            "%d sigmas cannot determine an operator on %d variables"
            % (n, sigmas[0].nvars)
        )
    if n >= POINT_PATH_MIN_SIGMAS:
        try:
            operator = _operator_by_points(sigmas)
        except RadicandMismatchError:  # the symbolic path gives the diagnosis
            operator = None
        if operator is not None:
            return ReconstructionResult(operator, [], None)
    numerators, q = reconstruction_pieces(sigmas)
    quotients = []
    failures = []
    for r in range(n):
        row = []
        for c in range(n):
            quo = exact_divide(numerators.entries[r][c], q)
            if isinstance(quo, DivisibilityFailure):
                failures.append((r + 1, c + 1, quo.remainder))
                row.append(None)
            else:
                row.append(quo)
        quotients.append(row)
    linear_part = None if failures else PolyMatrix(quotients)
    return ReconstructionResult(linear_part, failures, (numerators, q))


# -- parametric sigma sets ----------------------------------------------------

PARAM_NAMES = (
    "a",
    "b_11",
    "b_12",
    "b_13",
    "b_31",
    "b_21",
    "b_22",
    "b_23",
    "b_32",
    "b_33",
    "c",
)

CASE_TAGS = ("1.1", "1.2", "1.3", "2", "2.1", "2.2", "3", "4.1", "4.2")

_SIGMA2 = {
    # case tag -> the sigma_2 normal form, over x1, x2, x3 and the parameter a
    "1.1": "a*x1^2 + x2*x3",
    "1.2": "a*x1^2 - x2^2 - x3^2",
    "1.3": "a*x1^2 + x2^2 + x3^2",
    "2.1": "a*x1^2 + x2^2",
    "2.2": "a*x1^2 - x2^2",
    "3": "x1*x2",
    "4.1": "x1*x2 + x3^2",
    "4.2": "x1*x2 - x3^2",
}

_SIGMA3 = (
    "b_11*x1^3 + 3*b_12*x1^2*x2 + 3*b_13*x1^2*x3 + 3*b_21*x1*x2^2"
    " + b_22*x2^3 + 3*b_23*x2^2*x3 + 3*b_31*x1*x3^2 + 3*b_32*x2*x3^2"
    " + b_33*x3^3 + 6*c*x1*x2*x3"
)


class ParamSigmaSet(Record):
    """Sigmas over a ring of geometric variables followed by parameters.

    ``names`` covers every ring variable in index order; the first
    ``len(sigmas)`` are geometric, the rest are the sigma coefficients.
    The alpha unknowns of the linearity system are not among them:
    :func:`generate_linearity_system` appends those.
    """

    __slots__ = ("sigmas", "names", "case")

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise FormatError("unknown variable %r" % name) from None


def normalize_case_tag(tag: str) -> str:
    if tag == "2":
        return "2.1"
    if tag in _SIGMA2:
        return tag
    raise FormatError(
        "unknown case tag %r (expected one of %s)" % (tag, ", ".join(CASE_TAGS))
    )


def _alpha_names(n: int) -> tuple[str, ...]:
    return tuple(
        "alpha%d%d" % (i, j)
        for i in range(1, n * (n - 1) + 1)
        for j in range(1, n + 1)
    )


def param_sigmas(case: str) -> ParamSigmaSet:
    """The three-dimensional step-1 sigma family for one sigma_2 case.

    sigma_1 = x1, sigma_2 the tagged normal form, sigma_3 the general cubic
    with coefficients b_ij and c.
    """
    tag = normalize_case_tag(case)
    names = ("x1", "x2", "x3") + PARAM_NAMES
    sigmas = [parse_poly(text, names) for text in ("x1", _SIGMA2[tag], _SIGMA3)]
    return ParamSigmaSet(sigmas, names, tag)


def param_sigmas_2d(sign: int) -> ParamSigmaSet:
    """The two-dimensional family: sigma_1 = x1, sigma_2 = a x1^2 +/- x2^2."""
    if sign not in (1, -1):
        raise FormatError("sign must be +1 or -1")
    names = ("x1", "x2", "a")
    sigma2 = "a*x1^2 %s x2^2" % ("+" if sign > 0 else "-")
    sigmas = [parse_poly(text, names) for text in ("x1", sigma2)]
    return ParamSigmaSet(sigmas, names, "2d+" if sign > 0 else "2d-")


# -- the linearity system -----------------------------------------------------


class Equation(Record):
    """One coefficient equation with its provenance.

    ``entry`` names the numerator ("P1".."P6"), (row, col) the operator
    position it came from, ``monomial`` the geometric exponent tuple whose
    coefficient was extracted, and ``poly`` that coefficient (a polynomial in
    the parameters and alpha unknowns).
    """

    __slots__ = ("entry", "row", "col", "monomial", "poly")


class LinearitySystem(Record):
    """All coefficient equations demanding that the candidate be linear.

    Every polynomial is over ``names``, the first ``ngeo`` geometric.
    ``sigmas`` is the generating sigma list, or None for a system parsed
    back from a listing.
    """

    __slots__ = ("case", "names", "ngeo", "equations", "sigmas")

    def __len__(self):
        return len(self.equations)

    def alpha_indices(self) -> list[int]:
        return [i for i, name in enumerate(self.names) if name.startswith("alpha")]

    def alpha_free_equations(self) -> list[Equation]:
        """Equations not involving any alpha unknown."""
        alphas = self.alpha_indices()
        return [eq for eq in self.equations if not eq.poly.involves(alphas)]

    def geo_names(self) -> list[str]:
        return list(self.names[: self.ngeo])

    def to_text(self) -> str:
        """Deterministic listing, the golden-file and interchange format."""
        geo = self.geo_names()
        names = list(self.names)
        lines = [
            "# linearity system",
            "# case: %s" % self.case,
            "# geometric: %s" % " ".join(geo),
            "# symbols: %s" % " ".join(self.names[self.ngeo :]),
            "# equations: %d" % len(self.equations),
        ]
        # the text of each monomial, printed once for the whole listing
        texts: dict = {}
        heads: dict[tuple[int, ...], str] = {}
        if self.sigmas is not None:
            for k, s in enumerate(self.sigmas, start=1):
                lines.append("# sigma_%d = %s" % (k, _format_terms(s, names, texts)))
        for eq in self.equations:
            head = heads.get(eq.monomial)
            if head is None:
                head = heads[eq.monomial] = format_monomial(eq.monomial, geo)
            lines.append("%s (%d,%d) %s :: %s = 0" % (
                eq.entry, eq.row, eq.col, head, _format_terms(eq.poly, names, texts)))
        return "\n".join(lines) + "\n"


def generate_linearity_system(ps: ParamSigmaSet) -> LinearitySystem:
    """Coefficient equations of P_i - Q (alpha_i1 x_1 + ... ) over all
    non-first-row entries, ordered by entry then descending monomial.

    The system's ring is ``ps.names`` followed by the alpha unknowns.
    """
    n = len(ps.sigmas)
    if n not in (2, 3):
        raise DimensionMismatchError("expected 2 or 3 sigmas")
    _validate_step1_shape(ps)
    names = ps.names + _alpha_names(n)
    nv = len(names)
    numerators, q = reconstruction_pieces(ps.sigmas)
    q = q.embed(nv)
    xs = [Poly.variable(nv, j) for j in range(n)]
    alphas = [Poly.variable(nv, i) for i in range(len(ps.names), nv)]
    zero = Poly.zero(nv)
    equations = []
    for r in range(1, n):
        for c in range(n):
            p = (r - 1) * n + c
            linear_form = dot(alphas[p * n : (p + 1) * n], xs, zero)
            residual = numerators.entries[r][c].embed(nv) - q * linear_form
            grouped = residual.group_by(range(n))
            for exps in sorted(grouped, key=grlex_key, reverse=True):
                equations.append(
                    Equation("P%d" % (p + 1), r + 1, c + 1, exps, grouped[exps])
                )
    sigmas = [s.embed(nv) for s in ps.sigmas]
    return LinearitySystem(ps.case, names, n, equations, sigmas)


def _validate_step1_shape(ps: ParamSigmaSet):
    geo = range(len(ps.sigmas))
    x1 = Poly.variable(len(ps.names), 0)
    if ps.sigmas[0] != x1:
        raise DimensionMismatchError("sigma_1 must be x1")
    for k, s in enumerate(ps.sigmas[1:], start=2):
        if not s.is_homogeneous_in(k, geo):
            raise DimensionMismatchError(
                "sigma_%d must be homogeneous of degree %d in the geometric "
                "variables" % (k, k)
            )


# the four headers of a listing, each once, with a value, before the first
# equation line
_HEADERS = ("case:", "geometric:", "symbols:", "equations:")


def _header(line: str) -> tuple[str, str] | None:
    """The field and value of a stripped ``# case:``, ``# geometric:``,
    ``# symbols:`` or ``# equations:`` line, or None for any other
    comment."""
    body = line[1:].strip()
    for field in _HEADERS:
        if body.startswith(field):
            return field, body[len(field):].strip()
    return None


def parse_system(text: str) -> LinearitySystem:
    """Parse a listing produced by :meth:`LinearitySystem.to_text`.

    The four headers ``# case:``, ``# geometric:``, ``# symbols:`` and
    ``# equations:`` each appear once, with a value, before the first
    equation line; other comment lines are skipped wherever they stand.
    The equation count must match the number of equation lines, so a
    truncated or padded listing is rejected.  Each equation line names
    entry (row, col) of rows 2..n as P((row - 2) * n + col) and ends in
    ``= 0``.

    A body as ``to_text`` writes it, every line from the first equation on
    an equation line with a flat canonical sum, is read by a fast path.
    Any other body goes to the line reader, which is the only source of
    errors in the body (see :class:`_BodyReader`); an error names its
    1-based line number.
    """
    lines = text.splitlines(keepends=True)
    headers: dict[str, str] = {}
    count = None
    first = len(lines)  # the index of the first equation line
    for k, raw in enumerate(lines):
        line = raw.strip()
        if line and not line.startswith("#"):
            first = k
            break
        field = _header(line) if line else None
        if field is None:
            continue
        name, value = field
        try:
            if name in headers:
                raise FormatError("second '# %s' header" % name)
            if not value:
                raise FormatError("'# %s' header has no value" % name)
            if name == "equations:":
                count = _listing_int(value, "equation count")
        except FormatError as exc:
            raise FormatError("line %d: %s" % (k + 1, exc))
        headers[name] = value
    geo_names = headers.get("geometric:", "").split()
    names = geo_names + headers.get("symbols:", "").split()
    equations = []
    if first < len(lines):
        try:
            if "geometric:" not in headers or "symbols:" not in headers:
                raise FormatError("equation listed before its variable header")
            reader = _BodyReader(geo_names, names)
        except FormatError as exc:
            raise FormatError("line %d: %s" % (first + 1, exc))
        equations = reader.read(lines, first)
        if equations is None:
            equations = reader.read_lines(lines, first)
    if "case:" not in headers or first == len(lines):
        raise FormatError("system listing is missing its header")
    if count is None:
        raise FormatError("system listing is missing its '# equations:' header")
    if count != len(equations):
        raise FormatError(
            "system listing declares %d equations but lists %d"
            % (count, len(equations))
        )
    return LinearitySystem(headers["case:"], tuple(names), len(geo_names), equations, None)


class _BodyReader:
    """The equation lines of one listing, read by :meth:`read` when every
    line is as :meth:`LinearitySystem.to_text` writes it, and by
    :meth:`read_lines` otherwise, the only source of errors in a body.
    What either reads once per listing, the key of each monomial text of a
    sum and the exponents of each head monomial, the other finds kept."""

    __slots__ = ("ngeo", "nvars", "index_of", "geo_index", "keys", "heads")

    def __init__(self, geo_names: list[str], names: list[str]):
        self.ngeo = len(geo_names)
        self.nvars = len(names)
        self.index_of = _name_table(names)
        self.geo_index = _name_table(geo_names)
        self.keys: dict[str, int] = {}
        self.heads: dict[str, tuple[int, ...]] = {}

    def head(self, text: str) -> tuple[int, ...]:
        """The exponents of a head monomial such as ``x1^2*x3``."""
        exps = self.heads.get(text)
        if exps is None:
            exps = self.heads[text] = _parse_monomial(text, self.ngeo, self.geo_index)
        return exps

    def read(self, lines: list[str], first: int) -> list[Equation] | None:
        """The equations of ``lines`` from ``lines[first]`` on, each line
        ``<entry> <position> <monomial> :: <sum> = 0`` and a ``\\n``, as
        ``to_text`` writes it, with a flat canonical sum that the flat
        reader (:func:`~linnij.textio._read_flat`) reads; or None when
        :meth:`read_lines` must read them.

        Each line costs a ``find``, an ``endswith``, the split of its head
        and the flat reader's match, split and term loop; each distinct
        entry and position, and each distinct head monomial, is checked
        once, and the sums are checked once together for a geometric
        variable.  What the line reader would read otherwise or reject (a
        comment, another line end, a term past the flat reader, a bad
        position or head, a geometric variable) gives None, so that reader
        reports it.  The flat reader's pattern is the only one used: a
        pattern of a whole line takes longer to compile than a listing
        takes to read this way."""
        n, nvars, index_of, keys, heads = (
            self.ngeo, self.nvars, self.index_of, self.keys, self.heads)
        places: dict[tuple[str, str], tuple[int, int]] = {}
        equations = []
        for k in range(first, len(lines)):
            line = lines[k]
            i = line.find(" :: ")
            if i < 0 or not line.endswith(" = 0\n"):
                return None
            fields = line[:i].split()
            if len(fields) != 3:
                return None
            entry, pos, head = fields
            place = places.get((entry, pos))
            monomial = heads.get(head)
            if place is None or monomial is None:
                try:
                    if place is None:
                        place = places[entry, pos] = _position(entry, pos, n)
                    if monomial is None:
                        monomial = self.head(head)
                except FormatError:
                    return None
            poly = _read_flat(line[i + 4:-5], nvars, index_of, keys)
            if poly is None:
                return None
            equations.append(Equation(entry, place[0], place[1], monomial, poly))
        # every monomial text of every sum, and each of its factors, is a
        # key of keys
        geo = _field_mask(nvars, _MIN_WIDTH, tuple(range(n)))
        if any(key & geo for key in keys.values()):
            return None
        return equations

    def read_lines(self, lines: list[str], first: int) -> list[Equation]:
        """The equations of ``lines`` from ``lines[first]``, the first
        equation line, on; FormatError naming the line of the first
        fault."""
        n, nvars, index_of, keys = self.ngeo, self.nvars, self.index_of, self.keys
        geo = tuple(range(n))
        equations = []
        for lineno in range(first + 1, len(lines) + 1):
            line = lines[lineno - 1].strip()
            if not line:
                continue
            try:
                if line.startswith("#"):
                    field = _header(line)
                    if field is not None:
                        raise FormatError("'# %s' header after the first equation"
                                          % field[0])
                    continue
                head, _, rhs = line.partition("::")
                if not rhs:
                    raise FormatError("missing '::' in equation line %r" % line)
                fields = head.split()
                if len(fields) != 3:
                    raise FormatError("malformed equation header %r" % head)
                entry, pos, mono_text = fields
                row, col = _position(entry, pos, n)
                monomial = self.head(mono_text)
                poly_text, equals, zero = rhs.rpartition("=")
                if not equals or zero.strip() != "0":
                    raise FormatError("equation does not end in '= 0'")
                poly = _parse_poly(poly_text.strip(), nvars, index_of, keys)
                if poly.involves(geo):
                    raise FormatError("equation names a geometric variable: %r" % line)
                equations.append(Equation(entry, row, col, monomial, poly))
            except FormatError as exc:
                raise FormatError("line %d: %s" % (lineno, exc))
        return equations


def _position(entry: str, pos: str, n: int) -> tuple[int, int]:
    """The (row, col) of an equation line's entry and position, such as
    ``P4`` and ``(3,1)`` at n = 3; FormatError unless the entry is
    P((row - 2) * n + col) with 2 <= row <= n and 1 <= col <= n."""
    cells = pos[1:-1].split(",")
    if not (pos.startswith("(") and pos.endswith(")") and len(cells) == 2):
        raise FormatError("malformed position %r" % pos)
    row, col = (_listing_int(cell, "position") for cell in cells)
    if not (2 <= row <= n and 1 <= col <= n
            and entry == "P%d" % ((row - 2) * n + col)):
        raise FormatError("%s %s is not P((row-2)*n+col) (row,col) with "
                          "2 <= row <= n, 1 <= col <= n, n = %d"
                          % (entry, pos, n))
    return row, col


def _listing_int(digits: str, field: str) -> int:
    if not (digits.isascii() and digits.isdigit()):
        raise FormatError("%s is not a number: %r" % (field, digits))
    return _int_literal(digits)


# -- solution checking --------------------------------------------------------


class Residual(Record):
    """A nonzero value left in one equation by a candidate solution."""

    __slots__ = ("entry", "row", "col", "monomial", "value")


class CheckResult(Record):
    __slots__ = ("ok", "residuals")

    def __bool__(self):
        return self.ok


def _exact_value(value) -> Coefficient:
    """An assigned value, narrowed; FormatError unless it is exact."""
    try:
        return _exact(value)
    except TypeError:
        raise FormatError("assignment values must be exact scalars, got %r"
                          % (value,)) from None


def _assigned_values(names: Sequence[str], ngeo: int, exps: Sequence[set[int]],
                     assignment: Mapping[str, object]) -> dict[int, Coefficient]:
    """The assigned values by variable index.  Every name must be one of
    ``names`` but not among the first ``ngeo``, the geometric ones, and
    every other variable that occurs (``exps``, from
    :func:`~linnij.polyring.exponent_sets`) must have a value; otherwise
    :class:`FormatError`."""
    index_of = {name: i for i, name in enumerate(names)}
    values = {}
    for name, value in assignment.items():
        if name not in index_of:
            raise FormatError("assignment for unknown variable %r" % name)
        if index_of[name] < ngeo:
            raise FormatError("cannot assign a geometric variable %r" % name)
        values[index_of[name]] = _exact_value(value)
    missing = [names[i] for i in range(ngeo, len(names))
               if exps[i] and i not in values]
    if missing:
        raise FormatError(
            "assignment is missing values for: %s" % ", ".join(missing)
        )
    return values


def check_solution(
    system: LinearitySystem, assignment: Mapping[str, object]
) -> CheckResult:
    """Substitute one candidate solution and report the nonzero residuals.

    The equations must not involve the geometric variables.  The
    assignment must cover every parameter and alpha unknown that occurs in
    the system; unknown or missing names are errors, not failures.  The
    assignment becomes one power table (``polyring._power_table``: the
    values over one common denominator, a ``sqrt(d)`` value as a pair of
    ints, unless that would inflate it), built once at the exponents that
    occur, and every equation is summed against it by the one evaluation
    kernel ``polyring._value_at``.  A power the table would build past
    ``polyring.MAX_POWER_BITS`` is a :class:`FormatError`.
    """
    exps = exponent_sets(len(system.names), (eq.poly for eq in system.equations))
    geometric = [name for name, e in zip(system.geo_names(), exps) if e]
    if geometric:
        raise FormatError(
            "equations involve the geometric variables: %s" % ", ".join(geometric)
        )
    values = _assigned_values(system.names, system.ngeo, exps, assignment)
    # a variable without a value occurs in no equation
    table = _power_table([values.get(i, 0) for i in range(len(exps))], exps)
    residuals = []
    for eq in system.equations:
        total = _value_at(eq.poly, table)
        if total:
            residuals.append(Residual(eq.entry, eq.row, eq.col, eq.monomial, total))
    return CheckResult(not residuals, residuals)


def parse_assignment(text: str) -> dict[str, Coefficient]:
    """Parse "name = value" lines; blank lines and # comments are skipped."""
    out: dict[str, Coefficient] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, sep, value = line.partition("=")
        if not sep:
            raise FormatError("line %d: expected 'name = value'" % lineno)
        name = name.strip()
        if not name or name in out:
            raise FormatError("line %d: bad or repeated name %r" % (lineno, name))
        try:
            out[name] = parse_scalar(value.strip())
        except FormatError as exc:
            raise FormatError("line %d: %s" % (lineno, exc))
    return out


def derive_alphas(
    ps: ParamSigmaSet, params: Mapping[str, object]
) -> dict[str, Coefficient]:
    """Alpha values forced by a full parameter assignment.

    The assignment must cover every parameter that occurs in the sigmas,
    under the name checks of :func:`check_solution`.  Substitutes the
    parameters into the sigmas, divides each non-first-row reconstruction
    numerator by the denominator, and reads the alpha_ij off the resulting
    linear forms.  Raises when some entry fails to divide or the quotient
    is not geometric-linear (the assignment is then not a solution of the
    linearity system at all).
    """
    n = len(ps.sigmas)
    exps = exponent_sets(len(ps.names), ps.sigmas)
    values = _assigned_values(ps.names, n, exps, params)
    sigmas = [s.substitute(values) for s in ps.sigmas]
    numerators, q = reconstruction_pieces(sigmas)
    out: dict[str, Coefficient] = {}
    for r in range(1, n):
        for c in range(n):
            p_index = (r - 1) * n + c + 1
            quo = exact_divide(numerators.entries[r][c], q)
            if isinstance(quo, DivisibilityFailure):
                raise LinnijError(
                    "entry (%d,%d) is not linear under this assignment; "
                    "remainder %s"
                    % (r + 1, c + 1, format_poly(quo.remainder, list(ps.names)))
                )
            coeffs = quo.linear_coefficients()
            if coeffs is None or any(coeffs[n:]):
                raise LinnijError(
                    "entry (%d,%d) divides but is not geometric-linear"
                    % (r + 1, c + 1)
                )
            for j in range(n):
                out["alpha%d%d" % (p_index, j + 1)] = coeffs[j]
    return out


# -- the two-dimensional derivation -------------------------------------------


def solve_quadratic(c2: Coefficient, c1: Coefficient, c0: Coefficient
                    ) -> list[Coefficient]:
    """Exact roots of c2 t^2 + c1 t + c0, ascending; linear when c2 = 0."""
    c2, c1, c0 = _exact(c2), _exact(c1), _exact(c0)
    if not c2:
        if not c1:
            raise LinnijError("degenerate equation has no finite root set")
        return [_narrow(-c0 * _reciprocal(c1))]
    root = scalar_sqrt(c1 * c1 - 4 * c2 * c0)
    half = _reciprocal(2 * c2)
    lo = _narrow((-c1 - root) * half)
    hi = _narrow((-c1 + root) * half)
    if lo == hi:
        return [lo]
    return sorted((lo, hi))


def solve_two_dim(system: LinearitySystem) -> tuple[Poly, list[Coefficient]]:
    """Solve the 2D system: returns its alpha-free equation and the exact
    root set for the parameter a.

    Every alpha-free equation must be proportional to a single quadratic in
    a, which is solved exactly.
    """
    free = [eq.poly for eq in system.alpha_free_equations() if not eq.poly.is_zero()]
    if not free:
        raise LinnijError("system has no alpha-free equation")
    a_idx = system.names.index("a")
    lead = free[0]
    for other in free[1:]:
        # cross-multiplied proportionality check
        if lead * other.leading()[1] != other * lead.leading()[1]:
            raise LinnijError("alpha-free equations are not proportional")
    coeffs = []
    for degree in (2, 1, 0):
        exps = [0] * len(system.names)
        exps[a_idx] = degree
        coeffs.append(lead.coefficient(exps))
    return lead, solve_quadratic(*coeffs)


def two_dim_operator(a_value, sign: int) -> PolyMatrix:
    """The reconstructed linear operator for sigma = (x1, a x1^2 +/- x2^2)."""
    if sign not in (1, -1):
        raise FormatError("sign must be +1 or -1")
    a = _exact_value(a_value)
    x1 = Poly.variable(2, 0)
    x2 = Poly.variable(2, 1)
    sigmas = [x1, a * x1 * x1 + sign * x2 * x2]
    result = reconstruct_operator(sigmas)
    if result.linear_part is None:
        raise LinnijError(
            "a = %r does not give a linear operator; failing entries: %s"
            % (a_value, [(r, c) for r, c, _ in result.failures])
        )
    return result.linear_part


# -- normal forms for sigma_1 and sigma_2 -------------------------------------


def normalize_sigma1(s1: Poly) -> tuple[Poly, list[list[Coefficient]]]:
    """Linear change turning a nonzero linear form into the first coordinate.

    Returns (y1, T) with substitute_linear(s1, T) = y1.
    """
    n = s1.nvars
    coeffs = s1.linear_coefficients()
    if s1.is_zero() or coeffs is None:
        raise DimensionMismatchError("expected a nonzero homogeneous linear form")
    pivot = next(i for i, v in enumerate(coeffs) if v)
    rows = [coeffs] + [_unit_row(n, i) for i in range(n) if i != pivot]
    change = scalar_mat_inverse(rows)
    if s1.substitute_linear(change) != Poly.variable(n, 0):
        raise LinnijError("internal: change does not normalize sigma_1")
    return Poly.variable(n, 0), change


FULL = "Full"
RANK2 = "Rank2"
PRODUCT = "Product"
PRODUCT_PLUS = "ProductPlus"
DEGENERATE = "Degenerate"


class Sigma2NormalForm(Record):
    """Outcome of the quadratic reduction.

    ``tag`` is one of Full, Rank2, Product, ProductPlus, Degenerate;
    ``canonical`` the polynomial normal form; ``change`` the matrix T (first
    row (1, 0, ...)) with substitute_linear(input, T) = canonical; ``alpha``
    the leading y1^2 coefficient where the form has one, else None; ``signs``
    the +/-1 signs of the square terms, descending.
    """

    __slots__ = ("tag", "canonical", "change", "alpha", "signs")


def _unit_row(n: int, j: int) -> list[int]:
    """Row j of the n x n identity."""
    return [int(m == j) for m in range(n)]


def _quadratic_matrix(s2: Poly) -> list[list[Coefficient]]:
    n = s2.nvars
    a = [[0] * n for _ in range(n)]
    half = Fraction(1, 2)
    for i in range(n):
        for j in range(i, n):
            exps = [0] * n
            exps[i] += 1
            exps[j] += 1
            coeff = s2.coefficient(exps)
            a[i][j] = a[j][i] = coeff if i == j else _narrow(coeff * half)
    return a


def _canonical_poly(n: int, tag: str, alpha, signs) -> Poly:
    """The head y1*y2 (Product, ProductPlus) or alpha*y1^2, plus the signed
    squares of the coordinates that follow it."""
    y = [Poly.variable(n, i) for i in range(n)]
    if tag in (PRODUCT, PRODUCT_PLUS):
        canonical, first = y[0] * y[1], 2
    else:
        canonical, first = y[0] * y[0] * alpha, 1
    for k, sign in enumerate(signs):
        canonical = canonical + sign * y[first + k] * y[first + k]
    return canonical


def _finish(s2: Poly, tag: str, alpha, signs, rows, split) -> Sigma2NormalForm:
    """The normal form reached by the change split * rows^-1, where ``rows``
    are the new coordinates in those of the substitution ``split`` (None
    when there was none)."""
    n = s2.nvars
    change = scalar_mat_inverse(rows)
    if split is not None:
        change = scalar_mat_mul(split, change)
    canonical = _canonical_poly(n, tag, alpha, signs)
    if s2.substitute_linear(change) != canonical:
        raise LinnijError("internal: change does not reach the %s normal form" % tag)
    if change[0] != _unit_row(n, 0):
        raise LinnijError("internal: change moves the first coordinate")
    return Sigma2NormalForm(tag, canonical, change, alpha, signs)


def _sqrt_row(a, pivot: int, n: int) -> tuple[list[Coefficient], int]:
    """Elimination row sqrt(|a_pp|) (x_p + sum_{m != p} a_pm x_m / a_pp)."""
    app = a[pivot][pivot]
    scale = scalar_sqrt(abs(app))
    inverse = _reciprocal(app)
    row = []
    for m in range(n):
        if m == pivot:
            row.append(scale)
        else:
            row.append(_narrow(scale * a[pivot][m] * inverse))
    return row, 1 if app > 0 else -1


def _eliminate(a, pivot: int, n: int) -> list[list[Coefficient]]:
    """Symmetric remainder after splitting off the pivot square."""
    inverse = _reciprocal(a[pivot][pivot])
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == pivot or j == pivot:
                continue
            out[i][j] = _narrow(a[i][j] - a[i][pivot] * a[pivot][j] * inverse)
    return out


def normalize_sigma2(s2: Poly) -> Sigma2NormalForm:
    """Reduce a homogeneous quadratic to its normal form by a change that
    fixes the first coordinate.

    When x2 and x3 carry a cross term but no square, the substitution
    x2 = u + v, x3 = u - v first turns that term into a difference of
    squares.  One loop then splits off squares, the last free diagonal entry
    first, until no free variable has a square left.  What is left of x1
    decides the tag: a cross term with a free variable gives Product, or
    ProductPlus when squares were split off; otherwise the number of squares
    gives Degenerate, Rank2 or Full, with alpha the remaining x1^2
    coefficient and the squares ordered by descending sign.  The square
    roots this introduces must be representable in a single quadratic
    extension; otherwise NotRepresentableError (or a radicand mix error)
    propagates.
    """
    n = s2.nvars
    if n not in (2, 3):
        raise DimensionMismatchError("normal forms implemented for 2 or 3 variables")
    if not (s2.is_zero() or s2.is_homogeneous(2)):
        raise DimensionMismatchError("expected a homogeneous quadratic")
    a = _quadratic_matrix(s2)
    split = None
    if any(a[1][2:]) and not (a[1][1] or a[2][2]):  # x2*x3 but no square
        split = [[1, 0, 0], [0, 1, 1], [0, 1, -1]]
        a = _quadratic_matrix(s2.substitute_linear(split))
    free = list(range(1, n))
    squares = []  # (row, sign) in the order split off
    while any(a[j][j] for j in free):
        pivot = next(j for j in reversed(free) if a[j][j])
        squares.append(_sqrt_row(a, pivot, n))
        a = _eliminate(a, pivot, n)
        free.remove(pivot)

    linked = next((j for j in free if a[0][j]), None)
    if linked is None:
        # descending sign, the later square first on ties
        squares = sorted(reversed(squares), key=lambda square: -square[1])
        tag, alpha = (DEGENERATE, RANK2, FULL)[len(squares)], a[0][0]
        rows = ([_unit_row(n, 0)] + [row for row, _ in squares]
                + [_unit_row(n, j) for j in free])
    else:
        tag, alpha = (PRODUCT_PLUS if squares else PRODUCT), None
        linear = [a[0][0]] + [2 * v for v in a[0][1:]]
        rows = [_unit_row(n, 0), linear] + [_unit_row(n, j) for j in free if j != linked]
        rows += [row for row, _ in squares]
    signs = tuple(sign for _, sign in squares)
    return _finish(s2, tag, alpha, signs, rows, split)
