"""Packed exponent keys against the tuple-keyed kernels they replaced.

Every polynomial below is built twice: as a ``{exponent tuple:
coefficient}`` dict, which the reference kernels of ``tuple_kernel`` read,
and as a ``Poly``, which packs it.  Rings run from 1 to 33 variables, and
degrees straddle each boundary of the width ladder (``2**W - 1`` and
``2**W`` for W = 8, 16, 32 and 64), so products, sums and divisions cross
from one width to the next.
"""

import random
from fractions import Fraction

import pytest

import reference_copies
import tuple_kernel as ref
from linnij.catalog import load_catalog
from linnij.exactfield import Scalar
from linnij.polyring import (
    DivisibilityFailure, Poly, _fields, _pack, _power_table, _substitute_linear,
    _unpack, _value_at, _width_for, dot, exact_divide, exponent_sets, grlex_key)
from linnij.textio import _name_table, _parse_poly, _tokenize, default_names, format_poly

BOUNDARIES = (2**8, 2**16, 2**32, 2**64)


def typed(terms):
    """A term dict with each coefficient's type beside it, so that 2 and
    Fraction(2) or Scalar(2) do not compare equal."""
    return {exps: (type(c), c) for exps, c in terms.items()}


def random_coeff(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([-3, -1, 1, 2, 5])
    if kind == 1:
        return Fraction(rng.choice([-7, -1, 1, 5]), rng.choice([2, 3, 9]))
    return Scalar(Fraction(rng.randint(-2, 2), rng.choice([1, 2])), rng.choice([-1, 1, 2]), 3)


def random_exps(rng, nvars, degree):
    """An exponent tuple of total degree ``degree`` with one to three
    nonzero entries."""
    exps = [0] * nvars
    places = rng.sample(range(nvars), min(nvars, rng.randint(1, 3)))
    left = degree
    for place in places[:-1]:
        e = rng.randint(0, left)
        exps[place] += e
        left -= e
    exps[places[-1]] += left
    return tuple(exps)


def random_terms(rng, nvars, top=None):
    """A term dict of narrow nonzero coefficients; its degrees sit at or
    just below a ladder boundary, or are small, unless ``top`` caps them."""
    terms = {}
    for _ in range(rng.randint(1, 5)):
        if top is not None:
            degree = rng.randint(0, top)
        elif rng.random() < 0.5:
            degree = rng.randint(0, 4)
        else:
            degree = rng.choice(BOUNDARIES) - rng.randint(1, 2) + rng.randint(0, 1)
        terms[random_exps(rng, nvars, degree)] = random_coeff(rng)
    return terms


def operands(seed, count, top=None):
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(1, 33)
        yield rng, nvars, [random_terms(rng, nvars, top) for _ in range(3)]


def test_keys_round_trip_and_sort_as_grlex_seeded():
    for rng, nvars, terms in operands(61, 150):
        for t in terms:
            p = Poly(nvars, t)
            assert p.width == _width_for(max(sum(e) for e in t))
            assert typed(p.terms) == typed(t)
            assert [_unpack(k, nvars, p.width) for k in sorted(p.packed)] == sorted(
                t, key=grlex_key)
            for exps in t:
                key = _pack(exps, p.width)
                assert _fields(key, nvars, p.width) == tuple(
                    (i, e) for i, e in enumerate(exps) if e)
            assert p.degree() == max(sum(e) for e in t)
            assert p.leading()[0] == max(t, key=grlex_key)


def test_width_ladder_boundaries():
    for width in (8, 16, 32, 64):
        assert _width_for(2**width - 1) == width
        assert _width_for(2**width) == 2 * width
        x = Poly(2, {(2**width - 1, 0): 1})
        assert x.width == width
        y = Poly.variable(2, 0)
        # the product crosses into the next width, the sum does not
        assert (x * y).width == 2 * width
        assert (x * y).terms == {(2**width, 0): 1}
        assert (x + y).width == width
        # equal polynomials of two widths are equal and hash alike
        wide = x * y - x * y + y
        assert wide.width == 2 * width and wide == y and hash(wide) == hash(y)
        assert exact_divide(x * y, y) == x


def test_products_sums_and_dots_match_the_tuple_kernel_seeded():
    for rng, nvars, (ta, tb, tc) in operands(67, 200):
        a, b, c = (Poly(nvars, t) for t in (ta, tb, tc))
        assert typed((a * b).terms) == typed(ref.add_products({}, ta, tb))
        assert typed((a + b).terms) == typed(ref.add_terms(dict(ta), tb.items()))
        assert typed((a - c).terms) == typed(ref.add_terms(dict(ta), tc.items(), True))
        expected = ref.add_products(ref.add_products({}, ta, tb), tc, ta)
        got = dot([a, c, Poly.zero(nvars)], [b, a, c], Poly.zero(nvars))
        assert typed(got.terms) == typed(expected)


def shape(p):
    """Everything that makes two results the same: the ring, the width,
    the terms in their order and the type of each coefficient."""
    return p.nvars, p.width, [(key, type(c), c) for key, c in p.packed.items()]


def test_group_by_matches_its_fields_copy_seeded():
    # the restriction's degree as the sum of its exponents against the
    # degree from _fields, with indices repeated and widths from 8 to 128
    for rng, nvars, (ta, tb, _) in operands(75, 200):
        a = Poly(nvars, ta) + Poly(nvars, tb)
        idx = [rng.randrange(nvars) for _ in range(rng.randint(0, min(nvars, 5)))]
        got = a.group_by(idx)
        expected = reference_copies.group_by(a, idx)
        assert list(got) == list(expected)
        assert [shape(v) for v in got.values()] == [shape(v) for v in expected.values()]


def test_substitute_linear_matches_its_copy_seeded():
    # each monomial from its first power against each from the constant 1,
    # over int, Fraction and sqrt(3) changes and the catalog's changes
    rng = random.Random(3103)
    root3 = Scalar(0, 1, 3)
    cases = []
    for _ in range(150):
        nvars = rng.randint(1, 4)
        polys = [Poly(nvars, random_terms(rng, nvars, top=4)) for _ in range(rng.randint(1, 4))]
        polys.append(Poly.constant(nvars, random_coeff(rng)))
        ncols = rng.randint(1, 4)
        matrix = [[rng.choice([0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3), root3,
                               Scalar(Fraction(1, 3), Fraction(-1, 2), 3)])
                   for _ in range(ncols)] for _ in range(nvars)]
        cases.append((polys, matrix))
    for entry in load_catalog():
        if entry.change is not None:
            cases.append(([p for row in entry.operator.entries for p in row], entry.change))
    assert len(cases) == 159
    for polys, matrix in cases:
        got = _substitute_linear(polys, matrix)
        expected = reference_copies.substitute_linear(polys, matrix)
        assert [shape(p) for p in got] == [shape(p) for p in expected]


def test_exact_divide_matches_the_tuple_kernel_seeded():
    failures = 0
    for rng, nvars, (ta, tb, _) in operands(71, 150):
        # a term of c that b's leading term divides is reduced once per
        # degree it has, so c stays small
        tc = random_terms(rng, nvars, top=4)
        a, b, c = (Poly(nvars, t) for t in (ta, tb, tc))
        for dividend in (a * b, a * b + c, c):
            kind, expected = ref.exact_divide(dict(dividend.terms), tb)
            got = exact_divide(dividend, b)
            if kind == "fail":
                failures += 1
                assert isinstance(got, DivisibilityFailure)
                assert typed(got.remainder.terms) == typed(expected)
            else:
                assert typed(got.terms) == typed(expected)
    assert 100 <= failures <= 400


def test_group_by_gradient_and_readers_match_the_tuple_kernel_seeded():
    for rng, nvars, (ta, tb, _) in operands(73, 150):
        a = Poly(nvars, ta) + Poly(nvars, tb)
        t = dict(a.terms)
        idx = rng.sample(range(nvars), rng.randint(0, min(nvars, 4)))
        grouped = a.group_by(idx)
        assert {k: typed(v.terms) for k, v in grouped.items()} == {
            k: typed(v) for k, v in ref.group_by(t, idx).items()}
        assert {i: typed(q.terms) for i, q in a.gradient().items()} == {
            i: typed(q) for i, q in ref.gradient(t, nvars).items()}
        assert a.involves(idx) == any(e[i] for e in t for i in idx)
        k = rng.randint(0, 3)
        assert a.is_homogeneous_in(k, idx) == all(sum(e[i] for i in idx) == k for e in t)
        assert exponent_sets(nvars, [a]) == ref.exponent_sets(nvars, [t])
        offset = rng.randint(0, 2)
        embedded = a.embed(nvars + offset + 1, offset)
        assert embedded.terms == {(0,) * offset + e + (0,): c for e, c in t.items()}
        for exps in t:
            assert a.coefficient(exps) == Scalar._coerce(t[exps])
        assert format_poly(a) == ref.format_poly(t, default_names(nvars))


def random_value(rng):
    return rng.choice([0, 2, -1, Fraction(-2, 3), Scalar(Fraction(1, 2), 1, 3),
                       Scalar(0, Fraction(-1, 3), 3), Scalar(1, 2, 3)])


def test_substitute_and_value_at_match_the_tuple_kernel_seeded():
    # degrees stay near the first boundary, 2**8, where the powers of the
    # values stay cheap to build
    for rng, nvars, (ta, tb, _) in operands(79, 60, top=257):
        a = Poly(nvars, ta) * Poly(nvars, tb) if rng.random() < 0.3 else Poly(nvars, ta)
        t = dict(a.terms)
        values = {i: random_value(rng)
                  for i in rng.sample(range(nvars), rng.randint(1, nvars))}
        assert typed(a.substitute(values).terms) == typed(ref.substitute(t, nvars, values))
        point = [random_value(rng) for _ in range(nvars)]
        table = _power_table(point, exponent_sets(nvars, [a]))
        got, expected = _value_at(a, table), ref.value_at(t, table)
        assert (type(got), got) == (type(expected), expected)


def test_parse_matches_the_tuple_parser_seeded():
    for rng, nvars, (ta, tb, _) in operands(83, 120):
        names = default_names(nvars)
        index_of = _name_table(names)
        a = Poly(nvars, ta) - Poly(nvars, tb)
        text = format_poly(a)
        if rng.random() < 0.5:
            # a group times a term: the parser's product of a key and a Poly
            text = "(%s)*%s^%d - %s" % (text, rng.choice(names),
                                       rng.choice([1, 255, 256]), text)
        got = _parse_poly(text, nvars, index_of)
        expected = ref.TupleParser(_tokenize(text), nvars, index_of).parse()
        assert typed(got.terms) == typed(expected.terms)
        if "(" not in text:
            assert got == a


@pytest.mark.parametrize("text, exps", [
    ("x1^255", (255, 0)), ("x1^256", (256, 0)), ("x1^200*x2^56", (200, 56)),
    ("x1^65535*x2", (65535, 1)), ("x2^70000", (0, 70000)),
    ("x1^18446744073709551615*x2", (2**64 - 1, 1)),
    ("x2^99999999999999999999", (0, 99999999999999999999)),
])
def test_parser_widens_a_term_past_its_width(text, exps):
    p = _parse_poly(text + " + x1", 2, _name_table(["x1", "x2"]))
    assert p.width == _width_for(sum(exps))
    assert p.terms == {exps: 1, (1, 0): 1}
    assert format_poly(p) == text + " + x1"
