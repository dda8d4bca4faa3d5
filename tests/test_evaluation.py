"""The integer evaluation kernel against the narrow evaluation it replaced.

``polyring._value_at`` sums a polynomial over one table of integer powers
of a point, ``polyring._power_table``.  The reference below is the
evaluation it replaced, kept as it was: a row of each value's powers in
``int``, ``Fraction`` and ``Scalar``, and each term the product of its
coefficient and its variables' entries in index order.  Both must give the
same value in the same narrow type, or both raise
``RadicandMismatchError``.
"""

import random
from fractions import Fraction

import pytest

from linnij.catalog import (
    generalized_blocks, generalized_L1, generalized_L2, load_catalog)
from linnij.errors import RadicandMismatchError
from linnij.exactfield import Scalar
from linnij.polymatrix import jacobian, seeded_points
from linnij.polyring import (
    _SCALE_SLACK, Poly, _exact, _narrow, _power_table, _scaling_inflates, _value_at,
    exponent_sets)
from linnij.reconstruct import derive_alphas, generate_linearity_system, param_sigmas
from linnij.textio import parse_poly

from known_solutions import (
    CASE11_SOLUTIONS, CASE12_SOLUTIONS, PARAM_NAMES, full_assignment)


def reference_powers_of(value, top):
    """``[1, value, ..., value**top]`` in the narrow types, or None when
    ``value`` is zero."""
    value = _exact(value)
    row = [1]
    for _ in range(top):
        row.append(_narrow(row[-1] * value))
    return row if value else None


def reference_value_at(p, powers):
    """The value of ``p`` against one :func:`reference_powers_of` row per
    variable, summed in the narrow types."""
    total = 0
    for exps, coeff in p.terms.items():
        for row, e in zip(powers, exps):
            if e:
                if row is None:
                    break
                coeff = coeff * row[e]
        else:
            total = total + coeff
    return total if type(total) is int else _narrow(total)


def outcome(evaluate, *args):
    """(type, value) of one evaluation, or the name of the error it raised."""
    try:
        value = evaluate(*args)
    except RadicandMismatchError:
        return "RadicandMismatchError"
    return type(value), value


def assert_kernel_matches_reference(polys, point):
    """Every polynomial of ``polys`` at ``point``, through one table each
    way; returns the outcomes."""
    exps = exponent_sets(len(point), polys)
    table = _power_table(point, exps)
    powers = [reference_powers_of(v, max(e, default=0)) for v, e in zip(point, exps)]
    got = [outcome(_value_at, p, table) for p in polys]
    assert got == [outcome(reference_value_at, p, powers) for p in polys]
    return got


def random_value(rng, radicands=(3,)):
    """An int, a Fraction, a zero, or a sqrt(d) multiple with fractional
    parts, sometimes given as a Scalar."""
    kind = rng.randrange(4)
    if kind == 0:
        value = rng.randint(-9, 9)
    elif kind == 1:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 12))
    elif kind == 2:
        value = 0
    else:
        return Scalar(Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
                      Fraction(rng.choice([-1, 1]) * rng.randint(1, 5), rng.randint(1, 9)),
                      rng.choice(radicands))
    return Scalar(value) if rng.random() < 0.3 else value


def random_coefficient(rng, radicands=(3,)):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.choice([-3, -2, -1, 1, 2, 5])
    if kind == 1:
        return Fraction(rng.choice([-5, -1, 1, 7]), rng.randint(2, 9))
    return Scalar(Fraction(rng.randint(-2, 2), rng.randint(1, 3)),
                  Fraction(rng.choice([-1, 1]), rng.randint(1, 4)), rng.choice(radicands))


def random_poly(rng, nvars, radicands=(3,)):
    return Poly(nvars, {tuple(rng.randint(0, 4) if rng.random() < 0.5 else 0
                              for _ in range(nvars)): random_coefficient(rng, radicands)
                        for _ in range(rng.randint(0, 6))})


def test_kernel_matches_the_narrow_evaluation_seeded():
    rng = random.Random(2025)
    kinds = set()
    for _ in range(400):
        nvars = rng.randint(1, 5)
        polys = [random_poly(rng, nvars) for _ in range(4)]
        point = [random_value(rng) for _ in range(nvars)]
        kinds.update(kind for kind, _ in assert_kernel_matches_reference(polys, point))
    assert kinds == {int, Fraction, Scalar}


def test_two_radicands_evaluate_as_the_narrow_evaluation_did_seeded():
    # values and coefficients draw from sqrt(2) and sqrt(3): every result and
    # every RadicandMismatchError comes where the narrow product raised it
    rng = random.Random(4)
    seen = set()
    for _ in range(400):
        nvars = rng.randint(1, 4)
        polys = [random_poly(rng, nvars, (2, 3)) for _ in range(3)]
        point = [random_value(rng, (2, 3)) for _ in range(nvars)]
        seen.update("value" if isinstance(o, tuple) else o
                    for o in assert_kernel_matches_reference(polys, point))
    assert seen == {"value", "RadicandMismatchError"}


def test_a_long_denominator_keeps_the_narrow_rows_seeded():
    # 7^40 has 113 bits, far more than 3 has: over one common denominator
    # the powers of 3 would carry 7^40 each, so the table keeps the narrow
    # rows (its radicand slot is None), and the values stay the same
    rng = random.Random(40)
    for _ in range(100):
        polys = [random_poly(rng, 3) for _ in range(4)]
        point = [3, Fraction(1, 7**40), random_value(rng)]
        assert _power_table(point, [{1, 2, 3, 4}] * 3)[2] is None
        assert_kernel_matches_reference(polys, point)


def reference_bits(value):
    """The size ``_scaling_inflates`` gives a value: the bits of an int, and
    of a Fraction's or of each Scalar part's numerator and denominator."""
    if type(value) is int:
        return value.bit_length()
    if type(value) is Fraction:
        return value.numerator.bit_length() + value.denominator.bit_length()
    return sum(q.numerator.bit_length() + q.denominator.bit_length()
               for q in (value.rat, value.irr))


def test_scaling_inflates_at_the_exact_bit_measure_seeded():
    # a denominator of 2*bits + _SCALE_SLACK bits inflates a value of that
    # size and one bit fewer does not, so a measure off by one bit in any
    # part, a zero rational part included, changes some point's row kind
    rng = random.Random(29)
    for _ in range(300):
        big = 10 ** rng.randint(1, 30)
        value = rng.choice([
            rng.randint(1, big),
            Fraction(rng.randint(-big, big) or 1, rng.randint(2, big)),
            Scalar(Fraction(rng.randint(-big, big), rng.randint(1, big)),
                   Fraction(rng.randint(1, big), rng.randint(1, big)), 3)])
        bits = reference_bits(_narrow(value))
        for extra, inflates in ((-1, False), (0, True)):
            scale = 1 << (2 * bits + _SCALE_SLACK + extra)
            assert _scaling_inflates([_narrow(value)], [{1}], scale) is inflates, value


def test_two_radicands_at_one_point():
    names = ["x1", "x2", "x3"]
    point = [Scalar(0, 1, 2), Scalar(Fraction(1, 2), Fraction(1, 3), 3), Fraction(1, 2)]
    # no term mixes sqrt(2) with sqrt(3): x1 enters squared only
    apart = parse_poly("x1^2*x2 + 3*x1^2 - x2*x3", names)
    assert apart.evaluate(point) == Scalar(Fraction(27, 4), Fraction(1, 2), 3)
    # x1*x2 multiplies an irrational sqrt(2) by an irrational sqrt(3)
    mixed = parse_poly("x1*x2 + x3", names)
    with pytest.raises(RadicandMismatchError):
        mixed.evaluate(point)
    assert assert_kernel_matches_reference([apart, mixed], point) == [
        (Scalar, Scalar(Fraction(27, 4), Fraction(1, 2), 3)), "RadicandMismatchError"]


def listing_points():
    """(case, assignment by name) for every recorded solution and its
    perturbation, then seeded points of every kind on each listing."""
    for case, solutions in (("1.1", CASE11_SOLUTIONS), ("1.2", CASE12_SOLUTIONS)):
        ps = param_sigmas(case)
        for _, params, alphas, perturb, _ in solutions:
            if alphas is None:
                alphas = derive_alphas(ps, {p: params.get(p, 0) for p in PARAM_NAMES})
            yield case, full_assignment(params, alphas)
            if perturb is not None:
                bad = dict(params)
                bad[perturb] = Scalar._coerce(bad.get(perturb, 0)) + 1
                yield case, full_assignment(bad, alphas)
    rng = random.Random(32)
    for case in ("1.1", "1.2", "1.3", "2.1", "2.2", "3", "4.1", "4.2"):
        names = param_sigmas(case).names
        for _ in range(3):
            yield case, {name: random_value(rng) for name in names}


def test_kernel_matches_on_the_32_variable_listings():
    systems = {}
    for case, assignment in listing_points():
        if case not in systems:
            systems[case] = generate_linearity_system(param_sigmas(case))
        system = systems[case]
        point = [assignment.get(name, 0) for name in system.names]
        assert len(point) == 32
        assert_kernel_matches_reference([eq.poly for eq in system.equations], point)


def test_at_matches_the_narrow_evaluation_on_family_jacobians():
    entries = [build(n) for build in (generalized_L1, generalized_L2) for n in range(3, 8)]
    entries += [generalized_blocks(n) for n in range(3, 7)] + load_catalog()
    for entry in entries:
        jac = jacobian(entry.sigmas)
        polys = [p for row in jac.entries for p in row]
        top = [max(e, default=0) for e in exponent_sets(jac.nvars, polys)]
        for point, values in zip(seeded_points(jac.nvars), jac.at(seeded_points(jac.nvars))):
            powers = [reference_powers_of(v, e) for v, e in zip(point, top)]
            expected = [reference_value_at(p, powers) for p in polys]
            got = [v for row in values for v in row]
            assert got == expected and list(map(type, got)) == list(map(type, expected))
