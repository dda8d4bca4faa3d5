"""Catalog of verified linear operator fields with vanishing torsion.

Each :class:`CatalogEntry` bundles one classified algebra: the operator, the
coefficients of its characteristic polynomial, the structure relations of
the multiplication it encodes, and -- when two presentations of the same
algebra are recorded -- the exact linear change mapping one to the other.
The catalog ships as a JSON data file under ``data/``, the one place that
states each entry, change and change target; :func:`load_catalog` re-parses
and re-validates it rather than trusting it, and :func:`verify_entry` proves
each stated fact with one exact check.

Beyond the fixed tables, three constructors extend the indecomposable
three-variable entries to any dimension: :func:`generalized_L1`,
:func:`generalized_L2` and :func:`generalized_blocks`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from types import MappingProxyType

from .errors import DimensionMismatchError, FormatError, SingularMatrixError
from .exactfield import _narrow, _radicand
from .polyring import Poly, _linear_form, dot
from .polymatrix import PolyMatrix, charpoly_sigmas, covariance_defects, jacobian
from .nijenhuis import (
    StructureConstants,
    _nondegenerate_jacobian,
    change_coordinates,
    operator_to_lsa,
    torsion_witness,
)
from .record import Record
from .textio import (
    default_names,
    format_poly,
    format_scalar,
    format_scalar_matrix,
    parse_poly,
    parse_scalar,
    parse_scalar_matrix,
)

FORMAT_TAG = "nijenhuis-catalog/1"

#: The change that turns the fully diagonal operator diag(x1,x2,x3) into
#: the paired form [[x,y,0],[y,x,0],[0,0,z]] (catalog id "c5+⊕d"): the first
#: two coordinates are replaced by their sum and difference.
DIAG_PAIRING_CHANGE = ((1, 1, 0), (1, -1, 0), (0, 0, 1))


class CatalogEntry(Record):
    """One classified algebra: operator, sigmas, relations, optional change.

    ``change``, when present, is the scalar matrix T with
    change_coordinates(operator, T) == operator of the entry named
    ``target``.
    """

    __slots__ = ("id", "dim", "radicand", "operator", "sigmas", "relations",
                 "change", "target")

    def __init__(self, entry_id, dim, operator, sigmas, relations,
                 change=None, target=None):
        if operator.rows != dim or operator.cols != dim:
            raise DimensionMismatchError("operator must be %dx%d" % (dim, dim))
        if len(sigmas) != dim:
            raise DimensionMismatchError("expected %d sigmas" % dim)
        if change is not None and (len(change) != dim
                                   or any(len(row) != dim for row in change)):
            raise DimensionMismatchError("change must be %dx%d" % (dim, dim))
        radicand = _data_radicand(operator, sigmas, relations, change)
        super().__init__(entry_id, dim, radicand, operator, tuple(sigmas),
                         relations, change, target)

    def __repr__(self):
        return "CatalogEntry(%r, dim=%d)" % (self.id, self.dim)

    def to_json_dict(self):
        names = default_names(self.dim)
        record = {
            "id": self.id,
            "dim": self.dim,
            "radicand": self.radicand,
            "operator": [[format_poly(entry, names) for entry in row]
                         for row in self.operator.entries],
            "sigmas": [format_poly(s, names) for s in self.sigmas],
            "relations": [{"i": i, "j": j, "k": k, "coeff": format_scalar(c)}
                          for (i, j, k, c) in self.relations.relations()],
        }
        if self.change is not None:
            record["change"] = format_scalar_matrix([list(row) for row in self.change])
            record["target"] = self.target
        return record

    @staticmethod
    def from_json_dict(record):
        try:
            entry_id = record["id"]
            if not isinstance(entry_id, str):
                raise FormatError("entry id %r is not a string" % (entry_id,))
            dim = record["dim"]
            if type(dim) is not int or dim < 1:
                raise FormatError("entry %r dim %r is not a positive int"
                                  % (entry_id, dim))
            names = default_names(dim)
            operator = PolyMatrix(tuple(
                tuple(parse_poly(cell, names) for cell in row)
                for row in record["operator"]))
            sigmas = tuple(parse_poly(s, names) for s in record["sigmas"])
            relations = StructureConstants.from_relations(dim, [
                (r["i"], r["j"], r["k"], parse_scalar(r["coeff"]))
                for r in record["relations"]])
            radicand = record["radicand"]
            change = target = None
            if "change" in record:
                change = tuple(tuple(row) for row in parse_scalar_matrix(record["change"]))
                if len(change) != dim or any(len(row) != dim for row in change):
                    raise FormatError("entry %r change is not %dx%d"
                                      % (entry_id, dim, dim))
                target = record["target"]
                if not isinstance(target, str):
                    raise FormatError("entry %r change target is not a string" % entry_id)
            elif "target" in record:
                raise FormatError("entry %r has a target but no change" % entry_id)
        except (KeyError, TypeError) as exc:
            raise FormatError("malformed catalog entry: %s" % exc)
        entry = CatalogEntry(entry_id, dim, operator, sigmas, relations,
                             change=change, target=target)
        if entry.radicand != radicand:
            raise FormatError("entry %r radicand does not match its data" % entry_id)
        return entry


def _data_radicand(operator, sigmas, relations, change):
    rad = 0
    for row in operator.entries:
        for entry in row:
            rad = _merge_rad(rad, entry.radicand())
    for s in sigmas:
        rad = _merge_rad(rad, s.radicand())
    for (_, _, _, coeff) in relations.relations():
        rad = _merge_rad(rad, _radicand(coeff))
    if change is not None:
        for row in change:
            for value in row:
                rad = _merge_rad(rad, _radicand(value))
    return rad


def _merge_rad(current, found):
    if found == 0:
        return current
    if current not in (0, found):
        raise FormatError("mixed radicands %d and %d in one entry" % (current, found))
    return found


# -- persistence ---------------------------------------------------------------


def catalog_path():
    """Path of the packaged catalog data file."""
    return resources.files("linnij").joinpath("data/catalog.json")


def save_catalog(entries, path):
    document = {
        "format": FORMAT_TAG,
        "entries": [entry.to_json_dict() for entry in entries],
    }
    with open(str(path), "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, ensure_ascii=False)
        handle.write("\n")


def load_catalog(path=None):
    """Read, parse and structurally validate the catalog data file.

    The file is never trusted: every polynomial and scalar is re-parsed and
    each entry re-validated by the CatalogEntry constructor; semantic
    verification is a separate step (verify_entry).
    """
    if path is None:
        text = catalog_path().read_text(encoding="utf-8")
    else:
        with open(str(path), "r", encoding="utf-8") as handle:
            text = handle.read()
    try:
        document = json.loads(text)
    except ValueError as exc:
        raise FormatError("catalog file is not valid JSON: %s" % exc)
    if not isinstance(document, dict) or document.get("format") != FORMAT_TAG:
        raise FormatError("unrecognized catalog format tag")
    entries = document.get("entries")
    if not isinstance(entries, list):
        raise FormatError("catalog file has no entry list")
    return [CatalogEntry.from_json_dict(record) for record in entries]


# -- verification --------------------------------------------------------------


@lru_cache(maxsize=1)
def _packaged_targets():
    """The packaged catalog's entries by id, parsed once per process: the
    targets of :func:`verify_entry`'s change check when none are given.
    Entries are immutable and the mapping read-only, so every caller can
    share them."""
    return MappingProxyType({e.id: e for e in load_catalog()})


class EntryReport(Record):
    """Outcome of verifying one entry: (name, ok, detail) per check."""

    __slots__ = ("entry_id", "checks")

    @property
    def ok(self):
        return all(ok for (_, ok, _) in self.checks)

    def failures(self):
        return [(name, detail) for (name, ok, detail) in self.checks if not ok]

    def to_json_dict(self):
        return {
            "id": self.entry_id,
            "ok": self.ok,
            "checks": [{"name": name, "ok": ok, "detail": detail}
                       for (name, ok, detail) in self.checks],
        }


def verify_entry(entry, targets=None):
    """Prove every stated fact of one entry, each by one exact check.

    The checks, in order: torsion, charpoly, relations, nondegenerate,
    covariance and, where a change is recorded, change.  Failures are data
    (the report), not exceptions.  ``targets`` maps entry ids to entries and
    is consulted for the change check (default: the packaged catalog,
    parsed once per process).
    """
    checks = []

    witness = torsion_witness(entry.operator)
    checks.append(("torsion", witness is None,
                   None if witness is None else
                   "nonzero component (%d,%d,%d): %s"
                   % (witness[0], witness[1], witness[2],
                      format_poly(witness[3], default_names(entry.dim)))))

    computed = charpoly_sigmas(entry.operator)
    bad = [k + 1 for k in range(entry.dim) if computed[k] != entry.sigmas[k]]
    checks.append(("charpoly", not bad,
                   None if not bad else "sigma mismatch at %s" % bad))

    derived = operator_to_lsa(entry.operator)
    checks.append(("relations", derived == entry.relations,
                   None if derived == entry.relations else
                   "structure constants differ"))

    # one Jacobian serves the nondegeneracy certificate and the covariance
    jac = jacobian(list(entry.sigmas))
    nondeg = _nondegenerate_jacobian(jac)
    checks.append(("nondegenerate", nondeg,
                   None if nondeg else "sigma Jacobian determinant vanishes"))

    spots = covariance_defects(jac, entry.operator, entry.sigmas)
    checks.append(("covariance", not spots,
                   None if not spots else "J*L != S*J at %s" % spots))

    if entry.change is not None:
        if targets is None:
            targets = _packaged_targets()
        target = targets.get(entry.target)
        if target is None:
            checks.append(("change", False, "missing target entry %r" % entry.target))
        elif target.dim != entry.dim:
            checks.append(("change", False, "target entry %r has dimension %d"
                           % (entry.target, target.dim)))
        else:
            try:
                mapped = change_coordinates(entry.operator,
                                            [list(row) for row in entry.change])
            except SingularMatrixError:
                checks.append(("change", False, "change matrix is singular"))
            else:
                spots = _differing_positions(mapped, target.operator)
                checks.append(("change", not spots,
                               None if not spots else
                               "mapped operator differs from %r at %s"
                               % (entry.target, spots)))

    return EntryReport(entry.id, tuple(checks))


def _differing_positions(a, b):
    """1-based (row, column) positions where two same-size matrices differ."""
    return [(r + 1, c + 1) for r in range(a.rows) for c in range(a.cols)
            if a[r, c] != b[r, c]]


# -- n-dimensional families ----------------------------------------------------


def generalized_L1(n):
    """Extension of entry L1 to n variables (n >= 2).

    First column ((i-1-n)/n)*x_i, superdiagonal x_n, last column carrying
    i*x_{i+1}; sigmas x_i*x_n^(i-1) and (1/n)*x_n^n.
    """
    if n < 2:
        raise DimensionMismatchError("family L1 needs n >= 2, got %d" % n)
    zero = Poly.zero(n)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][0] = _linear_form(n, [(i, _narrow(Fraction(i - n, n)))])
    for i in range(n - 1):
        rows[i][i + 1] = Poly.variable(n, n - 1)
    for i in range(n - 2):
        rows[i][n - 1] = _linear_form(n, [(i + 1, i + 1)])
    operator = PolyMatrix(tuple(tuple(row) for row in rows))
    sigmas = []
    for i in range(1, n):
        exps = [0] * n
        exps[i - 1] = 1
        exps[n - 1] += i - 1
        sigmas.append(Poly.monomial(n, tuple(exps), 1))
    exps = [0] * n
    exps[n - 1] = n
    sigmas.append(Poly.monomial(n, tuple(exps), Fraction(1, n)))
    return CatalogEntry("L1(n=%d)" % n, n, operator, tuple(sigmas),
                        operator_to_lsa(operator))


def generalized_L2(n):
    """Extension of entry L2 to n variables (n >= 3).

    First column x_1..x_{n-1}, superdiagonal -x_n, last column
    -(i-1)*x_i - i*x_{i+1}; sigmas (-1)^i*(x_{i-1}+x_i)*x_n^(i-1).
    """
    if n < 3:
        raise DimensionMismatchError("family L2 needs n >= 3, got %d" % n)
    zero = Poly.zero(n)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n - 1):
        rows[i][0] = Poly.variable(n, i)
    for i in range(n - 2):
        rows[i][i + 1] = rows[i][i + 1] - Poly.variable(n, n - 1)
    for i in range(n - 2):
        rows[i][n - 1] = (rows[i][n - 1]
                          - Poly.variable(n, i).scale(i)
                          - Poly.variable(n, i + 1).scale(i + 1))
    rows[n - 2][n - 1] = rows[n - 2][n - 1] - Poly.variable(n, n - 2).scale(n - 2)
    rows[n - 1][n - 1] = Poly.variable(n, n - 1)
    operator = PolyMatrix(tuple(tuple(row) for row in rows))
    x_n = Poly.variable(n, n - 1)
    sigmas = [-Poly.variable(n, 0) - x_n]
    for i in range(2, n):
        base = Poly.variable(n, i - 2) + Poly.variable(n, i - 1)
        sigmas.append(base.scale((-1) ** i) * x_n ** (i - 1))
    sigmas.append(Poly.variable(n, n - 2).scale((-1) ** n) * x_n ** (n - 1))
    return CatalogEntry("L2(n=%d)" % n, n, operator, tuple(sigmas),
                        operator_to_lsa(operator))


def generalized_blocks(n, signs=None):
    """Block extension of entries ind3.1/ind3.2 to n variables (n >= 3).

    (n-1)//2 two-by-two blocks [[2*x_{2j+1}-x_n, s_j*x_{2j+2}], [x_{2j+2},
    x_n]] plus a final 1x1 block x_n; even n inserts an extra 1x1 block
    2*x_{n-1}-x_n.  Block-leading rows carry x_n - x_{2j+1} in the last
    column.  ``signs`` picks each block's s_j (default all +1).

    Off the diagonal blocks, only the last column has entries, above the
    final 1x1 block, so the operator is block upper triangular and its
    characteristic polynomial is the product of its blocks':

        det(t Id - L) = (t - x_n)
            * prod_j (t^2 - 2 x_{2j+1} t + 2 x_{2j+1} x_n - x_n^2 - s_j x_{2j+2}^2)
            * (t - 2 x_{n-1} + x_n)    [even n only]

    The sigmas are read off that product, so the charpoly check of
    :func:`verify_entry` compares Berkowitz with an independent form.
    """
    if n < 3:
        raise DimensionMismatchError("family blocks needs n >= 3, got %d" % n)
    nblocks = (n - 1) // 2
    if signs is None:
        signs = [1] * nblocks
    signs = list(signs)
    if len(signs) != nblocks:
        raise DimensionMismatchError(
            "need %d block signs for n=%d, got %d" % (nblocks, n, len(signs)))
    if any(s not in (1, -1) for s in signs):
        raise FormatError("block signs must be +1 or -1")
    zero = Poly.zero(n)
    rows = [[zero] * n for _ in range(n)]
    x_n = Poly.variable(n, n - 1)
    for j in range(nblocks):
        r = 2 * j
        rows[r][r] = Poly.variable(n, r).scale(2) - x_n
        rows[r][r + 1] = Poly.variable(n, r + 1).scale(signs[j])
        rows[r + 1][r] = Poly.variable(n, r + 1)
        rows[r + 1][r + 1] = x_n
        rows[r][n - 1] = x_n - Poly.variable(n, r)
    if n % 2 == 0:
        rows[n - 2][n - 2] = Poly.variable(n, n - 2).scale(2) - x_n
        rows[n - 2][n - 1] = x_n - Poly.variable(n, n - 2)
    rows[n - 1][n - 1] = x_n
    operator = PolyMatrix(tuple(tuple(row) for row in rows))
    # chi: the coefficients of the product so far, highest power of t first;
    # the two linear factors go first, the faster order
    one = Poly.constant(n, 1)
    chi = [one, -x_n]
    if n % 2 == 0:
        chi = _times(chi, [one, x_n - Poly.variable(n, n - 2).scale(2)], zero)
    for j in range(nblocks):
        x_a, x_b = Poly.variable(n, 2 * j), Poly.variable(n, 2 * j + 1)
        chi = _times(chi, [one, x_a.scale(-2),
                           (x_a * x_n).scale(2) - x_n * x_n - (x_b * x_b).scale(signs[j])],
                     zero)
    sigmas = tuple(chi[1:])
    tag = "".join("+" if s > 0 else "-" for s in signs)
    return CatalogEntry("blocks(n=%d,%s)" % (n, tag), n, operator, sigmas,
                        operator_to_lsa(operator))


def _times(p, q, zero):
    """The coefficients, highest power of t first, of the product of two
    polynomials in t given by theirs."""
    return [dot([p[m] for m in range(len(p)) if 0 <= i - m < len(q)],
                [q[i - m] for m in range(len(p)) if 0 <= i - m < len(q)], zero)
            for i in range(len(p) + len(q) - 1)]
