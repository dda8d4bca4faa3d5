import random
from fractions import Fraction

import pytest

from linnij.errors import DimensionMismatchError
from linnij.exactfield import Scalar
from linnij.polyring import (
    DivisibilityFailure, Poly, dot, exact_divide, powers_of, top_exponents, value_at)
from linnij.textio import format_poly, parse_poly


NAMES3 = ["x1", "x2", "x3"]


def p(text):
    return parse_poly(text, NAMES3)


def random_poly(rng, nvars=3, nterms=4, maxdeg=2, rad=0):
    out = Poly.zero(nvars)
    for _ in range(rng.randint(0, nterms)):
        exps = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        if rad and rng.random() < 0.5:
            out = out + Poly.monomial(nvars, exps, Scalar(0, coeff, rad))
        else:
            out = out + Poly.monomial(nvars, exps, Scalar(coeff))
    return out


def test_ring_axioms_seeded():
    rng = random.Random(23)
    for _ in range(150):
        a = random_poly(rng)
        b = random_poly(rng)
        c = random_poly(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == Poly.zero(3)
        assert a - b == a + (-b)
        assert a * Poly.constant(3, Scalar(1)) == a


def test_zero_terms_are_dropped():
    q = p("x1 + x2") - p("x2")
    assert q == p("x1")
    assert len(q.terms) == 1
    assert (p("x1") * Poly.zero(3)).is_zero()


def test_partial_derivative_rules():
    rng = random.Random(7)
    for _ in range(80):
        a = random_poly(rng)
        b = random_poly(rng)
        for i in range(3):
            # product rule
            assert (a * b).partial(i) == a.partial(i) * b + a * b.partial(i)
            # linearity
            assert (a + b).partial(i) == a.partial(i) + b.partial(i)


def test_partial_hand_values():
    assert p("x1^3 + 3*x1*x2").partial(0) == p("3*x1^2 + 3*x2")
    assert p("x2*x3").partial(2) == p("x2")
    assert p("5").partial(1).is_zero()


def test_substitute_linear_composes():
    rng = random.Random(42)
    t1 = [[Scalar(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
    t2 = [[Scalar(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
    # x -> t1 y followed by y -> t2 z is x -> (t1 t2) z
    prod = [[sum((t1[i][k] * t2[k][j] for k in range(3)), Scalar(0))
             for j in range(3)] for i in range(3)]
    for _ in range(40):
        a = random_poly(rng)
        assert a.substitute_linear(t1).substitute_linear(t2) \
            == a.substitute_linear(prod)


def test_substitute_and_evaluate_agree():
    # evaluate and value_at multiply entries of a power table, one table
    # shared by every polynomial at the point; substitute builds a Poly
    rng = random.Random(3)
    for _ in range(200):
        rad = rng.choice([0, 3])
        polys = [random_poly(rng, nterms=6, maxdeg=4, rad=rad) for _ in range(3)]
        point = [Scalar(rng.randint(-3, 3), rng.choice([0, 0, rng.randint(-2, 2)]), 3)
                 for _ in range(3)]
        if rng.random() < 0.3:
            point[rng.randrange(3)] = Scalar(0)
        powers = [powers_of(v, 4) for v in point]
        for a in polys:
            full = a.substitute(dict(enumerate(point))).constant_value()
            assert full == a.evaluate(point) == value_at(a, powers)
    assert value_at(Poly.zero(3), [None] * 3) == Scalar(0)


def test_ring_accessors():
    assert top_exponents(3, [p("x1^2*x3 - x1"), p("x1*x3^4"), p("0")]) == [2, 0, 4]
    assert top_exponents(3, []) == [0, 0, 0]
    assert p("2*x1 - 1/3*x3").linear_coefficients() == [
        Scalar(2), Scalar(0), Scalar(Fraction(-1, 3))]
    assert p("0").linear_coefficients() == [Scalar(0)] * 3
    for text in ("x1 + 1", "x1*x2", "x2^2", "7"):
        assert p(text).linear_coefficients() is None, text
    assert p("x1*x3 + x2").involves(range(2))
    assert p("x1*x3 + x2").involves([0])
    assert not p("x3^2 + 5").involves(range(2))
    assert not p("0").involves(range(3))


def _assert_well_formed(poly, nvars):
    assert poly.nvars == nvars
    for exps, coeff in poly.terms.items():
        assert type(exps) is tuple and len(exps) == nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        assert isinstance(coeff, Scalar) and not coeff.is_zero()


def random_scalar(rng, rad):
    return Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if rad else 0, 3)


def dot_rows(rng, a, b, c, rad):
    """(left, right, zero) triples for dot over polynomial, scalar and mixed
    rows; the last product of each row cancels the first."""
    s, t = random_scalar(rng, rad), random_scalar(rng, rad)
    zero = Poly.zero(3)
    return [
        ([a, b, c, -a], [b, c, a, b], zero),
        ([s, t, -s], [t, s, t], Scalar(0)),
        ([s, a, b, -s], [a, s, c, a], zero),
        ([a, s, t], [b, Scalar(0), t], zero),
    ]


def test_ring_results_are_well_formed_seeded():
    # results are built by the trusted constructor, which checks nothing
    rng = random.Random(29)
    for _ in range(150):
        rad = rng.choice([0, 3])
        a = random_poly(rng, nterms=5, rad=rad)
        b = random_poly(rng, nterms=5, rad=rad)
        # c shares monomials with a and b, so some sums cancel to zero
        c = a - b.scale(Scalar(rng.randint(-1, 1)))
        operands = [a, b, c]
        before = [dict(x.terms) for x in operands]
        factor = random_scalar(rng, 3)
        point = {rng.randrange(3): Scalar(rng.randint(-2, 2), rng.randint(-1, 1), 3)}
        results = [a + b, a - b, a + c, a - c, a * b, a * c, -a,
                   a.scale(factor), a * factor, a.substitute(point)]
        results += [a.partial(i) for i in range(3)]
        results += list(a.group_by([rng.randrange(3)]).values())
        results += [dot(*rows) for rows in dot_rows(rng, a, b, c, rad)]
        if b:
            results += [exact_divide(a * b, b), exact_divide(c, b)]
            results = [r.remainder if isinstance(r, DivisibilityFailure) else r
                       for r in results]
        change = [[random_scalar(rng, rad) for _ in range(3)] for _ in range(3)]
        results.append(a.substitute_linear(change))
        text = format_poly(a)
        results += [parse_poly(text, NAMES3),
                    parse_poly("%s - (%s)*x1 + 0*(x2) + x1*(%s)" % (text, text, text),
                               NAMES3)]
        for r in results:
            if isinstance(r, Poly):
                _assert_well_formed(r, 3)
            else:
                assert isinstance(r, Scalar)
        _assert_well_formed(a.substitute_linear([row[:2] for row in change]), 2)
        _assert_well_formed(a.embed(5, rng.randint(0, 2)), 5)
        _assert_well_formed(Poly.variable(3, rng.randrange(3)), 3)
        # no operation accumulates into the term dict of an operand
        assert [x.terms for x in operands] == before


# -- the shared term kernels against the sums they replaced ------------------


def reference_dot(left, right, zero):
    """One addition per product, as the package summed before every sum of
    products shared one term dict."""
    acc = zero
    for p, q in zip(left, right):
        if p and q:
            acc = acc + p * q
    return acc


def reference_exact_divide(p, q):
    """Leading-term reduction through Poly arithmetic, as the package
    divided before the remainder became one term dict."""
    lead_exps, lead_coeff = q.leading()
    quotient = Poly.zero(p.nvars)
    remainder = p
    while not remainder.is_zero():
        exps, coeff = remainder.leading()
        diff = tuple(a - b for a, b in zip(exps, lead_exps))
        if any(d < 0 for d in diff):
            return DivisibilityFailure(remainder)
        t = Poly.monomial(p.nvars, diff, coeff / lead_coeff)
        quotient = quotient + t
        remainder = remainder - t * q
    return quotient


def test_dot_and_exact_divide_match_references_seeded():
    rng = random.Random(37)
    failures = 0
    for _ in range(150):
        rad = rng.choice([0, 3])
        a, b, c = (random_poly(rng, nterms=5, maxdeg=3, rad=rad) for _ in range(3))
        for rows in dot_rows(rng, a, b, c, rad):
            assert dot(*rows) == reference_dot(*rows)
        if not b:
            continue
        for dividend in (a * b, a * b + c, c):
            expected = reference_exact_divide(dividend, b)
            assert exact_divide(dividend, b) == expected
            failures += isinstance(expected, DivisibilityFailure)
    assert 50 <= failures <= 250


def test_public_constructor_validates():
    with pytest.raises(DimensionMismatchError):
        Poly(3, {(1, 0): Scalar(1)})
    with pytest.raises(ValueError):
        Poly(3, {(1, -1, 0): Scalar(1)})
    assert Poly(3, {(1, 0, 0): Scalar(0)}).is_zero()


def test_homogeneity_and_degree():
    assert p("x1*x2 + x3^2").is_homogeneous(2)
    assert not p("x1 + x2^2").is_homogeneous(1)


def test_exact_divide_multiply_back_seeded():
    rng = random.Random(91)
    hits = 0
    for _ in range(200):
        q = random_poly(rng, rad=3)
        d = random_poly(rng, rad=3)
        if d.is_zero():
            continue
        result = exact_divide(q * d, d)
        assert not isinstance(result, DivisibilityFailure)
        assert result == q
        hits += 1
    assert hits > 150


def test_exact_divide_failure_keeps_remainder_identity():
    rng = random.Random(17)
    seen_failures = 0
    for _ in range(200):
        a = random_poly(rng, nterms=5)
        d = random_poly(rng, nterms=2)
        if d.is_zero():
            continue
        result = exact_divide(a, d)
        if isinstance(result, DivisibilityFailure):
            seen_failures += 1
            assert not result.remainder.is_zero()
    assert seen_failures > 20


def test_exact_divide_hand_case():
    # x2^2 is not divisible by x1
    result = exact_divide(p("-x2^2"), p("x1"))
    assert isinstance(result, DivisibilityFailure)
    assert result.remainder == p("-x2^2")
    # clean quotient with mixed signs
    assert exact_divide(p("x1^2 - x2^2"), p("x1 - x2")) == p("x1 + x2")


def test_embed_offsets_variables():
    q = p("x1*x2").embed(5, 2)
    assert q.nvars == 5
    assert q == parse_poly("x3*x4", ["x1", "x2", "x3", "x4", "x5"])


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        p("x1") + Poly.variable(2, 0)


def test_radicand_of_poly():
    assert p("x1 + x2").radicand() == 0
    assert parse_poly("sqrt(3)*x1 + x2", NAMES3).radicand() == 3
