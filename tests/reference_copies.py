"""Readers and kernels as they were before listings were read by a fast path,
for tests only.

``parse_system`` is the line reader that read every listing line by line,
over the flat reader of that time (one full match and one ``findall`` per
sum); ``group_by`` is :meth:`Poly.group_by` with its ``_fields`` degree;
``substitute_linear`` is ``polyring._substitute_linear`` with every
monomial started from the constant 1.  Each is kept verbatim in
substance, so the faster code can be checked against it.
"""

import re

from linnij.errors import FormatError
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
