import random
from fractions import Fraction

import pytest

from known_solutions import CASE12_SOLUTIONS, PARAM_NAMES, full_assignment
from linnij.catalog import DIAG_PAIRING_CHANGE, load_catalog
from linnij.errors import DimensionMismatchError
from linnij.exactfield import Scalar, scalar_sqrt
from linnij.nijenhuis import (
    StructureConstants, change_coordinates, lsa_to_operator, random_structure_constants)
from linnij.polyring import DivisibilityFailure, Poly, dot, exact_divide, exponent_sets
from linnij.polymatrix import seeded_points
from linnij.reconstruct import (
    check_solution, derive_alphas, generate_linearity_system, normalize_sigma1,
    normalize_sigma2, param_sigmas, param_sigmas_2d, parse_assignment, solve_quadratic,
    solve_two_dim)
from linnij.textio import format_poly, parse_poly, parse_scalar, parse_scalar_matrix


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


def test_gradient_by_an_index_set_matches_the_full_gradient_seeded():
    rng = random.Random(61)
    for _ in range(120):
        nvars = rng.randint(1, 6)
        a = random_poly(rng, nvars=nvars, nterms=6, maxdeg=3, rad=rng.choice([0, 3]))
        full = a.gradient()
        indices = rng.sample(range(nvars), rng.randint(0, nvars))
        part = a.gradient(indices)
        assert part == {i: d for i, d in full.items() if i in indices}
        assert list(part) == sorted(part)
        for i in range(nvars):
            assert a.partial(i) == full.get(i, Poly.zero(nvars))
    for bad in (-1, 3):
        with pytest.raises(DimensionMismatchError,
                           match="variable index %d out of range" % bad):
            p("x1").gradient([0, bad])
        with pytest.raises(DimensionMismatchError):
            p("x1").partial(bad)


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
    # evaluate sums over a table of integer powers; substitute builds a Poly
    rng = random.Random(3)
    for _ in range(200):
        rad = rng.choice([0, 3])
        polys = [random_poly(rng, nterms=6, maxdeg=4, rad=rad) for _ in range(3)]
        point = [Scalar(rng.randint(-3, 3), rng.choice([0, 0, rng.randint(-2, 2)]), 3)
                 for _ in range(3)]
        if rng.random() < 0.3:
            point[rng.randrange(3)] = Scalar(0)
        for a in polys:
            full = a.substitute(dict(enumerate(point))).constant_value()
            assert full == a.evaluate(point)
    assert Poly.zero(3).evaluate([Scalar(0)] * 3) == Scalar(0)


def test_ring_accessors():
    assert exponent_sets(3, [p("x1^2*x3 - x1"), p("x1*x3^4"), p("0")]) == [
        {1, 2}, set(), {1, 4}]
    assert exponent_sets(3, []) == [set(), set(), set()]
    assert p("2*x1 - 1/3*x3").linear_coefficients() == [
        Scalar(2), Scalar(0), Scalar(Fraction(-1, 3))]
    assert p("0").linear_coefficients() == [Scalar(0)] * 3
    for text in ("x1 + 1", "x1*x2", "x2^2", "7"):
        assert p(text).linear_coefficients() is None, text
    assert p("x1*x3 + x2").involves(range(2))
    assert p("x1*x3 + x2").involves([0])
    assert not p("x3^2 + 5").involves(range(2))
    assert not p("0").involves(range(3))


def _assert_narrow(coeff):
    """A nonzero coefficient in its narrowest exact type: an int, a Fraction
    that is not an integer, or a Scalar with an irrational part; never a
    float and never a rational Scalar."""
    if type(coeff) is int:
        assert coeff != 0
    elif type(coeff) is Fraction:
        assert coeff.denominator != 1
    else:
        assert type(coeff) is Scalar and coeff.irr != 0, repr(coeff)


def _assert_well_formed(poly, nvars):
    assert poly.nvars == nvars
    for exps, coeff in poly.terms.items():
        assert type(exps) is tuple and len(exps) == nvars
        assert all(type(e) is int and e >= 0 for e in exps)
        _assert_narrow(coeff)


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
        t = Poly.monomial(p.nvars, diff, Scalar._coerce(coeff) / lead_coeff)
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
    assert Poly(3, {(1, 0, 0): Fraction(0)}).is_zero()


@pytest.mark.parametrize("exponent", [1.5, 1.0, True])
def test_exponents_must_be_ints(exponent):
    # 1.5 would print as x1^1, and 1.0 and True were stored as given
    with pytest.raises(TypeError, match="is not an int"):
        Poly(2, {(exponent, 0): 3})
    with pytest.raises(TypeError, match="is not an int"):
        Poly.monomial(2, (0, exponent), 3)


@pytest.mark.parametrize("value", [0.1, 2.0, 0.0, "1/2", None])
def test_entry_points_take_exact_coefficients_only(value):
    x1 = Poly.variable(3, 0)
    with pytest.raises(TypeError):
        Poly(3, {(1, 0, 0): value})
    with pytest.raises(TypeError):
        Poly.constant(3, value)
    with pytest.raises(TypeError):
        Poly.monomial(3, (1, 0, 0), value)
    with pytest.raises(TypeError):
        x1.scale(value)
    # a dot factor is checked whatever its partner, so even a zero float
    # fails, over polynomial and over scalar rows
    for zero in (Poly.zero(3), Scalar(0)):
        for factor in (x1, Poly.zero(3), Scalar(2), Scalar(0)):
            with pytest.raises(TypeError):
                dot([factor], [value], zero)
            with pytest.raises(TypeError):
                dot([value], [factor], zero)


def test_entry_points_narrow_their_coefficients():
    x1 = Poly.variable(3, 0)
    for value, narrow in ((Scalar(2), 2), (Fraction(4, 2), 2), (True, 1),
                          (Scalar(Fraction(1, 2)), Fraction(1, 2)),
                          (Scalar(1, 1, 3), Scalar(1, 1, 3))):
        for poly in (Poly(3, {(0, 0, 0): value}), Poly.constant(3, value),
                     Poly.monomial(3, (0, 0, 0), value),
                     Poly.constant(3, 1).scale(value), Poly.constant(3, 1) * value):
            assert poly.terms == {(0, 0, 0): narrow}
            assert type(poly.terms[0, 0, 0]) is type(narrow)
        assert (x1 * value).coefficient((1, 0, 0)) == Scalar._coerce(value)
    # the same polynomial, however its coefficients were given
    assert Poly.constant(3, Scalar(2)) == Poly.constant(3, 2)
    assert hash(Poly.constant(3, Scalar(2))) == hash(Poly.constant(3, 2))
    half = Poly.monomial(3, (0, 1, 0), Scalar(Fraction(1, 2)))
    assert half == Poly.monomial(3, (0, 1, 0), Fraction(1, 2))
    assert hash(half) == hash(Poly.monomial(3, (0, 1, 0), Fraction(1, 2)))


def test_a_constant_equals_and_hashes_as_its_scalar():
    # equal objects hash equal: a constant polynomial is the scalar it holds,
    # in either order of comparison, whatever type the scalar comes in
    root3 = Scalar(0, 1, 3)
    assert {Poly.constant(2, 1), 1} == {1}
    assert Poly.zero(3) == 0 and 0 == Poly.zero(3) and hash(Poly.zero(3)) == hash(0)
    for value in (1, -3, Fraction(1, 2), Scalar(Fraction(-2, 3)), root3, 2 - root3 / 3):
        constant = Poly.constant(2, value)
        assert constant == value and value == constant
        assert hash(constant) == hash(value) and len({constant, value}) == 1
        assert constant != value + 1 and value + 1 != constant
        assert Poly.variable(2, 0) * value != value
    assert Poly.constant(2, Fraction(1, 2)) != Fraction(1, 3)
    assert Poly.constant(2, root3) != Scalar(0, 1, 5) and Poly.constant(2, root3) != 3
    assert Poly.constant(2, 1) != "1" and Poly.constant(2, 1) != 1.0


def test_constants_of_two_rings_compare_as_their_values():
    # each constant equals its scalar, so == stays transitive through it,
    # and a set holds one of them in whatever order they are added
    a, b = Poly.constant(2, 1), Poly.constant(3, 1)
    assert a == 1 == b and a == b and b == a and hash(a) == hash(b)
    assert len({1, a, b}) == len({a, b, 1}) == len({a, b}) == 1
    assert Poly.zero(2) == Poly.zero(5) and hash(Poly.zero(2)) == hash(Poly.zero(5))
    root3 = Scalar(0, 1, 3)
    assert Poly.constant(1, root3) == Poly.constant(4, root3)
    assert Poly.constant(2, 2) != Poly.constant(3, 1)
    assert Poly.constant(2, root3) != Poly.constant(3, 2 * root3)
    assert Poly.constant(2, 1) != Poly.zero(3)
    # no other polynomials of two rings are equal, however their terms read
    assert Poly.variable(2, 0) != Poly.variable(3, 0)
    assert Poly.variable(2, 0) + 1 != Poly.variable(3, 0) + 1
    assert Poly.constant(2, 1) != Poly.variable(3, 0) + 1


def narrow_type(value):
    """The one type the value convention allows for ``value``, judged by its
    value alone: Scalar for a nonzero irrational part, else int when the
    value is integral and Fraction otherwise."""
    if type(value) is Scalar:
        if value.irr:
            return Scalar
        value = value.rat
    return int if Fraction(value).denominator == 1 else Fraction


def types(values):
    return [type(v) for v in values]


def test_readers_return_scalars():
    # every Poly reader returns an int for an integral value, a Fraction
    # for another rational one, and a Scalar exactly when the irrational
    # part is nonzero; inputs may be Scalars, rational ones included
    root3 = Scalar(0, 1, 3)
    q = p("x1^2 + 1/2*x2 - 3") + Poly.monomial(3, (0, 0, 1), Scalar(0, 2, 3))
    assert types(c for _, c in q.sorted_terms()) == [int, Fraction, Scalar, int]
    assert q.leading() == ((2, 0, 0), 1) and type(q.leading()[1]) is int
    assert types(q.coefficient(e) for e in ((2, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0),
                                            (1, 1, 1), (0, 0, 300))) == [
        int, Fraction, Scalar, int, int, int]
    linear = p("2*x1 - 1/3*x3") + Poly.monomial(3, (0, 1, 0), root3)
    assert types(linear.linear_coefficients()) == [int, Scalar, Fraction]
    assert types(p("x2").linear_coefficients()) == [int, int, int]
    assert {i: type(c) for i, c in linear.linear_terms().items()} == {
        0: int, 1: Scalar, 2: Fraction}
    assert types(p(t).constant_value() for t in ("7", "1/7", "0", "sqrt(3)^2")) == [
        int, Fraction, int, int]
    assert type(Poly.constant(3, root3).constant_value()) is Scalar
    points = ([Scalar(1), Scalar(2), Scalar(0)], [1, 1, 0], [0, 0, 1], [root3, 0, 0])
    assert [q.evaluate(point) for point in points] == [
        -1, Fraction(-3, 2), Scalar(-3, 2, 3), 0]
    assert types(q.evaluate(point) for point in points) == [int, Fraction, Scalar, int]
    assert type(p("0").evaluate([1, 2, 3])) is int


def test_readers_return_narrow_values():
    # the other public readers keep the same convention as the Poly readers
    # (test_readers_return_scalars) and the scalar matrix helpers
    # (test_polymatrix.py::test_scalar_readers_keep_their_types)
    root3 = Scalar(0, 1, 3)
    assert {type(v) for point in seeded_points(4) for v in point} == {int}
    assert types(scalar_sqrt(v) for v in (4, Fraction(1, 4), Scalar(4), 3, Scalar(7, 4, 3),
                                          0)) == [int, Fraction, int, Scalar, Scalar, int]

    assert types(parse_scalar(t) for t in ("4/2", "1/2", "sqrt(3)", "sqrt(3)*sqrt(3)")) == [
        int, Fraction, Scalar, int]
    assert [types(row) for row in parse_scalar_matrix([["1", "-1/2"], ["2*sqrt(3)", "0"]])] == [
        [int, Fraction], [Scalar, int]]
    assignment = parse_assignment("a = 1/3\nb = 6/3\nc = 1 + sqrt(3)\n")
    assert types(assignment.values()) == [Fraction, int, Scalar]

    # check_solution, derive_alphas and the normal forms, on every value
    name, params, _, perturb, _ = CASE12_SOLUTIONS[1]
    values = full_assignment(params, {})
    alphas = derive_alphas(param_sigmas("1.2"), {k: values[k] for k in PARAM_NAMES})
    assert set(types(alphas.values())) == {int, Fraction, Scalar}
    values.update(alphas)
    values[perturb] = values[perturb] + 1
    residuals = [r.value for r in
                 check_solution(generate_linearity_system(param_sigmas("1.2")), values).residuals]
    assert set(types(residuals)) == {int, Scalar}
    roots = (solve_quadratic(4, 0, -1) + solve_quadratic(Scalar(1), -3, 2)
             + solve_quadratic(2, 0, -1) + solve_two_dim(
                 generate_linearity_system(param_sigmas_2d(1)))[1])
    assert types(roots) == [Fraction, Fraction, int, int, Scalar, Scalar, int, Fraction]
    sigma1_change = normalize_sigma1(p("2*x1 - 1/3*x3"))[1]
    forms = [normalize_sigma2(p(t)) for t in ("1/2*x1^2 + 3*x2^2 - 12*x3^2",
                                               "x1*x2 + 4*x3^2", "x2*x3")]
    assert [nf.alpha for nf in forms] == [Fraction(1, 2), None, 0]
    found = (alphas.values(), residuals, roots, [v for row in sigma1_change for v in row],
             [forms[0].alpha, forms[2].alpha],
             [v for nf in forms for row in nf.change for v in row],
             [c for nf in forms for _, c in nf.canonical.sorted_terms()])
    for group in found:
        assert all(type(v) is narrow_type(v) for v in group), group
    assert {type(v) for row in forms[0].change for v in row} == {int, Scalar}

    sc = StructureConstants([[[Scalar(2), Fraction(1, 2)], [root3, Scalar(0)]],
                             [[0, Fraction(4, 2)], [Scalar(Fraction(1, 3)), 1]]])
    assert types(v for *_, v in sc.relations()) == [int, Fraction, Scalar, int, Fraction, int]
    assert {type(v) for plane in sc.a for row in plane for v in row} == {int, Fraction, Scalar}
    summed = StructureConstants.from_relations(
        2, [(1, 1, 1, Fraction(1, 2)), (1, 1, 1, Scalar(Fraction(1, 2))), (2, 1, 1, Scalar(3))])
    assert summed.relations() == [(1, 1, 1, 1), (2, 1, 1, 3)]
    assert types(v for *_, v in summed.relations()) == [int, int]
    drawn = random_structure_constants(random.Random(3), 3)
    assert {type(v) for *_, v in drawn.relations()} == {int}
    assert {type(v) for row in DIAG_PAIRING_CHANGE for v in row} == {int}
    moved = change_coordinates(lsa_to_operator(sc), [[Scalar(1), 1], [0, Scalar(2)]])
    assert all(type(c) is narrow_type(c) for row in moved.entries for q in row
               for _, c in q.sorted_terms())
    catalog_values = [v for entry in load_catalog()
                      for v in [c for *_, c in entry.relations.relations()]
                      + [v for row in entry.change or () for v in row]]
    assert all(type(v) is narrow_type(v) for v in catalog_values)
    assert {type(v) for v in catalog_values} == {int, Fraction, Scalar}


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


def test_dot_rejects_rows_of_different_lengths():
    # zip would drop the longer row's tail: x1 * x1, and 1 * 3
    x1 = Poly.variable(3, 0)
    for left, right, zero in (([x1, x1], [x1], Poly.zero(3)),
                              ([x1], [x1, 2], Poly.zero(3)),
                              ([1, 2], [3], 0), ([Scalar(1)], [], Scalar(0)),
                              ([], [Poly.zero(3)], Poly.zero(3))):
        with pytest.raises(DimensionMismatchError):
            dot(left, right, zero)
    assert dot([], [], Poly.zero(3)) == 0 and dot([], [], 0) == 0


def test_radicand_of_poly():
    assert p("x1 + x2").radicand() == 0
    assert parse_poly("sqrt(3)*x1 + x2", NAMES3).radicand() == 3


# -- the ring against its old representation ---------------------------------
#
# Before coefficients were narrowed, a term dict held a Scalar for every
# coefficient.  These references compute on such {exponents: Scalar} dicts
# with Scalar arithmetic only, and the ring's results, read through
# sorted_terms(), must equal them.


def old_form(poly):
    return {e: Scalar._coerce(c) for e, c in poly.sorted_terms()}


def old_clean(acc):
    return {e: c for e, c in acc.items() if c}


def old_add(a, b, sign=1):
    acc = dict(a)
    for e, c in b.items():
        acc[e] = acc.get(e, Scalar(0)) + c * sign
    return old_clean(acc)


def old_mul(a, b):
    acc = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            acc[e] = acc.get(e, Scalar(0)) + c1 * c2
    return old_clean(acc)


def old_dot(left, right):
    acc = {}
    for a, b in zip(left, right):
        acc = old_add(acc, old_mul(a, b))
    return acc


def old_divide(a, b):
    """The quotient, or the remainder as a failure, by leading terms."""
    key = lambda e: (sum(e), e)
    lead = max(b, key=key)
    quotient, remainder = {}, dict(a)
    while remainder:
        e = max(remainder, key=key)
        diff = tuple(x - y for x, y in zip(e, lead))
        if min(diff) < 0:
            return "fail", remainder
        c = remainder[e] / b[lead]
        quotient[diff] = c
        remainder = old_add(remainder, old_mul({diff: c}, b), -1)
    return "ok", quotient


def old_substitute(a, values):
    acc = {}
    for e, c in a.items():
        rest = list(e)
        for i, v in values.items():
            c = c * v ** e[i]
            rest[i] = 0
        acc[tuple(rest)] = acc.get(tuple(rest), Scalar(0)) + c
    return old_clean(acc)


def old_partial(a, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1:]: c * e[i] for e, c in a.items() if e[i]}


def hand_operands():
    """sqrt(3)*sqrt(3) = 3, an irrational part that cancels in a sum, and
    fractions whose products and sums are integers."""
    r3 = Scalar(0, 1, 3)
    x1, x2 = Poly.variable(3, 0), Poly.variable(3, 1)
    a = x1.scale(r3) + x2.scale(Scalar(1, 1, 3))       # sqrt3*x1 + (1+sqrt3)*x2
    b = x1.scale(r3) + x2.scale(Scalar(1, -1, 3)) + 1  # sqrt3*x1 + (1-sqrt3)*x2 + 1
    c = x1.scale(Fraction(1, 2)) + x2.scale(Fraction(3, 2))
    return a, b, c


def test_ring_matches_the_scalar_term_dicts_seeded():
    rng = random.Random(53)
    a, b, c = hand_operands()
    assert (a + b).terms == {(1, 0, 0): Scalar(0, 2, 3), (0, 1, 0): 2, (0, 0, 0): 1}
    assert (a * b).terms[2, 0, 0] == 3 and (a * b).terms[0, 2, 0] == -2
    assert (c + c).terms == {(1, 0, 0): 1, (0, 1, 0): 3}
    assert exact_divide(a * b, a) == b
    cases = [(a, b, c, 3)]
    for _ in range(120):
        rad = rng.choice([0, 3])
        cases.append(tuple(random_poly(rng, nterms=5, maxdeg=3, rad=rad)
                           for _ in range(3)) + (rad,))
    failures = 0
    for a, b, c, rad in cases:
        x, y, z = old_form(a), old_form(b), old_form(c)
        s, t = random_scalar(rng, rad), random_scalar(rng, rad)
        results = [
            (a + b, old_add(x, y)),
            (a - c, old_add(x, z, -1)),
            (a * b, old_mul(x, y)),
            (a * b - a * c, old_add(old_mul(x, y), old_mul(x, z), -1)),
            (a.scale(s), old_mul(x, {(0, 0, 0): s} if s else {})),
            (dot([a, b, c], [c, a, b], Poly.zero(3)),
             old_dot([x, y, z], [z, x, y])),
            (dot([a, s, b], [t, c, a], Poly.zero(3)),
             old_dot([x, {(0, 0, 0): s} if s else {}, y],
                     [{(0, 0, 0): t} if t else {}, z, x])),
        ]
        i = rng.randrange(3)
        results.append((a.partial(i), old_partial(x, i)))
        gradient = a.gradient()
        assert list(gradient) == [v for v in range(3) if old_partial(x, v)]
        results += [(d, old_partial(x, v)) for v, d in gradient.items()]
        values = {i: Scalar(rng.randint(-2, 2), rng.randint(-1, 1) if rad else 0, 3)}
        results.append((a.substitute(values), old_substitute(x, values)))
        if b:
            for dividend in (a * b, a * b + c):
                got = exact_divide(dividend, b)
                kind, expected = old_divide(old_form(dividend), y)
                failures += kind == "fail"
                if kind == "fail":
                    assert isinstance(got, DivisibilityFailure)
                    got = got.remainder
                results.append((got, expected))
        for got, expected in results:
            _assert_well_formed(got, 3)
            assert old_form(got) == expected
    assert 20 <= failures <= 200

