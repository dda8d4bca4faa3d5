"""The ring's kernels as they were on exponent-tuple keys, for tests only.

Before monomials were packed into one int, a term dict mapped exponent
tuples to narrow coefficients, and every kernel walked those tuples.  The
functions below are those kernels, kept verbatim in substance, on plain
``{tuple: coefficient}`` dicts.  ``Poly.terms`` gives such a dict of any
polynomial, so the packed kernels can be checked against them term for term.
"""

import operator
from fractions import Fraction
from itertools import compress

from linnij.exactfield import Scalar
from linnij.polyring import Poly, _narrow, _narrow_rows, _reciprocal, powers_of
from linnij.textio import _Parser, _int_literal, _int_power, _check_constant_power
from linnij.textio import format_scalar
from linnij.errors import FormatError


def grlex_key(exponents):
    return (sum(exponents), exponents)


def add_terms(acc, terms, subtract=False):
    for exps, coeff in terms:
        cur = acc.get(exps)
        if cur is None:
            acc[exps] = -coeff if subtract else coeff
            continue
        total = cur - coeff if subtract else cur + coeff
        if type(total) is not int:
            total = _narrow(total)
        if total:
            acc[exps] = total
        else:
            del acc[exps]
    return acc


def add_products(acc, left, right):
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            exps = tuple(map(operator.add, e1, e2))
            prod = c1 * c2
            if type(prod) is not int:
                prod = _narrow(prod)
            cur = acc.get(exps)
            if cur is None:
                acc[exps] = prod
                continue
            total = cur + prod
            if type(total) is not int:
                total = _narrow(total)
            if total:
                acc[exps] = total
            else:
                del acc[exps]
    return acc


def exact_divide(p, q):
    """("ok", quotient) or ("fail", remainder) of two term dicts."""
    lead_exps = max(q, key=grlex_key)
    inverse = _reciprocal(q[lead_exps])
    quotient = {}
    remainder = dict(p)
    while remainder:
        exps = max(remainder, key=grlex_key)
        diff = tuple(a - b for a, b in zip(exps, lead_exps))
        if any(d < 0 for d in diff):
            return "fail", remainder
        coeff = _narrow(remainder[exps] * inverse)
        quotient[diff] = coeff
        add_products(remainder, {diff: -coeff}, q)
    return "ok", quotient


def group_by(terms, indices):
    idx = tuple(indices)
    groups = {}
    for exps, coeff in terms.items():
        key = tuple(exps[i] for i in idx)
        rest = list(exps)
        for i in idx:
            rest[i] = 0
        groups.setdefault(key, {})[tuple(rest)] = coeff
    return groups


def exponent_sets(nvars, term_dicts):
    exps = set()
    for terms in term_dicts:
        exps.update(terms)
    return [set(column) - {0} for column in zip((0,) * nvars, *exps)]


def substitute(terms, nvars, values):
    exps = exponent_sets(nvars, (terms,))
    powers = [(i, powers_of(value, exps[i])) for i, value in values.items()]
    images = []
    for exps, coeff in terms.items():
        new_exps = list(exps)
        for i, row in powers:
            e = exps[i]
            if e:
                if row is None:
                    break
                coeff = coeff * row[e]
                new_exps[i] = 0
        else:
            images.append((tuple(new_exps), _narrow(coeff)))
    return add_terms({}, images)


def gradient(terms, nvars):
    acc = {}
    for exps, coeff in terms.items():
        for i in compress(range(nvars), exps):
            e = exps[i]
            lowered = exps[:i] + (e - 1,) + exps[i + 1:]
            c = coeff if e == 1 else _narrow(coeff * e)
            acc.setdefault(i, {})[lowered] = c
    return {i: acc[i] for i in sorted(acc)}


def value_at(terms, table):
    """The value of a term dict against a ``polyring._power_table``."""
    rows, scale, rad, values = table
    if rad is None:
        total = 0
        for exps, coeff in terms.items():
            for row, e in zip(rows, exps):
                if e:
                    if row is None:
                        break
                    coeff *= row[e]
            else:
                total += coeff
        return total if type(total) is int else _narrow(total)
    total_a = total_b = deg = 0
    for exps, coeff in terms.items():
        kind = type(coeff)
        if kind is Scalar and coeff.rad != rad:
            if rad:
                exps = [row or () for row in rows]
                return value_at(terms, (_narrow_rows(values, exps), 1, None, values))
            rad = coeff.rad
        a, b, k = 1, 0, 0
        for row, e in compress(zip(rows, exps), exps):
            if row is None:
                break
            x = row[e]
            k += e
            if type(x) is int:
                a *= x
                b *= x
            else:
                x0, x1 = x
                a, b = a * x0 + rad * b * x1, a * x1 + b * x0
        else:
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
                r, i = coeff.rat, coeff.irr
                a, b = r * a + rad * i * b, r * b + i * a
            else:
                a *= coeff
                b *= coeff
            total_a += a
            total_b += b
    if not (total_a or total_b):
        return 0
    denominator = scale ** deg
    if total_b:
        return Scalar._new(Fraction(total_a, denominator),
                           Fraction(total_b, denominator), rad)
    return _narrow(Fraction(total_a, denominator))


def format_poly(terms, names):
    if not terms:
        return "0"
    pieces = []
    for exps in sorted(terms, key=grlex_key, reverse=True):
        coeff = terms[exps]
        factors = []
        for i, e in enumerate(exps):
            if e == 1:
                factors.append(names[i])
            elif e > 1:
                factors.append("%s^%d" % (names[i], e))
        mono = "*".join(factors)
        if type(coeff) is Scalar and coeff.rat:
            atom = "(%s)" % format_scalar(coeff)
            if mono:
                atom += "*" + mono
            negative = False
        else:
            negative = (coeff.irr if type(coeff) is Scalar else coeff) < 0
            mag = -coeff if negative else coeff
            if not mono:
                atom = format_scalar(mag)
            elif mag == 1:
                atom = mono
            else:
                atom = "%s*%s" % (format_scalar(mag), mono)
        if not pieces:
            pieces.append("-" + atom if negative else atom)
        else:
            pieces.append((" - " if negative else " + ") + atom)
    return "".join(pieces)


class TupleParser(_Parser):
    """The parser's sum and product rules as they were on exponent lists;
    its groups are read by the inherited rule, through this sum rule."""

    def sum_expr(self):
        tokens = self.tokens
        acc = {}
        if tokens[self.pos] == "+":
            self.pos += 1
        while True:
            coeff, exps, rest = self.product_expr()
            if coeff:
                key, value = tuple(exps), _narrow(coeff)
                if rest is None:
                    add_terms(acc, ((key, value),))
                else:
                    add_products(acc, {key: value}, dict(rest.terms))
            op = tokens[self.pos]
            if op == "+":
                self.pos += 1
            elif op != "-":
                return Poly(self.nvars, acc)

    def product_expr(self):
        tokens, index_of = self.tokens, self.index_of
        coeff = 1
        exps = [0] * self.nvars
        rest = None
        divide = False
        pos = self.pos
        while True:
            token = tokens[pos]
            while token == "-":
                coeff = -coeff
                pos += 1
                token = tokens[pos]
            i = index_of.get(token)
            if i is not None:
                pos += 1
            elif token is not None and token[0].isdigit():
                base = _int_literal(token)
                pos += 1
            else:
                self.pos = pos
                base = self.group()
                pos = self.pos
            if tokens[pos] == "^":
                token = tokens[pos + 1]
                if token is None or not token[0].isdigit():
                    raise FormatError("exponent must be an integer")
                exponent = _int_literal(token)
                pos += 2
                if i is None and type(base) is int:
                    base = _int_power(base, exponent)
            else:
                exponent = 1
            if i is not None:
                if divide and exponent:
                    raise FormatError("can only divide by a constant")
                exps[i] += exponent
            elif type(base) is int:
                coeff = Fraction(coeff) / base if divide else coeff * base
            else:
                if exponent > 1 and base.degree() <= 0:
                    _check_constant_power(base, exponent)
                factor = base ** exponent
                if divide:
                    try:
                        divisor = factor.constant_value()
                    except ValueError:
                        raise FormatError("can only divide by a constant")
                    factor = Poly.constant(self.nvars, divisor.inverse())
                rest = factor if rest is None else rest * factor
            op = tokens[pos]
            if op != "*" and op != "/":
                self.pos = pos
                return coeff, exps, rest
            divide = op == "/"
            pos += 1
