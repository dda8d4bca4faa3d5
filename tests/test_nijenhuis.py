import random
from fractions import Fraction

import pytest

from linnij.catalog import (
    generalized_L1,
    generalized_L2,
    generalized_blocks,
    load_catalog,
)
from linnij.errors import DimensionMismatchError
from linnij.exactfield import Scalar
from linnij.polyring import Poly
from linnij.polymatrix import PolyMatrix, jacobian, seeded_points
from linnij.nijenhuis import (
    StructureConstants,
    change_coordinates,
    direct_sum,
    is_differentially_nondegenerate,
    is_left_symmetric,
    lsa_to_operator,
    operator_is_linear,
    operator_to_lsa,
    random_structure_constants,
    torsion,
)
from linnij.textio import default_names, parse_poly


def op(rows, n):
    names = default_names(n)
    return PolyMatrix(tuple(
        tuple(parse_poly(cell, names) for cell in row) for row in rows))


def test_torsion_vanishes_on_known_operator():
    m = op([["2*x1", "-x2"], ["x2", "0"]], 2)
    assert torsion(m).is_zero()


def test_torsion_nonzero_with_witness():
    m = op([["x1", "x2"], ["x2", "x2"]], 2)
    witness = torsion(m).first_nonzero()
    assert witness is not None
    i, j, k, poly = witness
    assert (i, j, k) == (1, 1, 2)
    assert poly == parse_poly("x2", default_names(2))


def test_torsion_antisymmetry():
    # N(j,k) = -N(k,j) componentwise
    rng = random.Random(4)
    for _ in range(20):
        sc = random_structure_constants(rng, 3)
        tensor = torsion(lsa_to_operator(sc))
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert tensor.component(i + 1, j + 1, k + 1) \
                        == -tensor.component(i + 1, k + 1, j + 1)


def test_lsa_operator_round_trip():
    rng = random.Random(12)
    for n in (2, 3):
        for _ in range(25):
            sc = random_structure_constants(rng, n)
            assert operator_to_lsa(lsa_to_operator(sc)) == sc


def test_operator_to_lsa_requires_linear_entries():
    quadratic = op([["x1^2", "0"], ["0", "0"]], 2)
    assert not operator_is_linear(quadratic)
    with pytest.raises(DimensionMismatchError):
        operator_to_lsa(quadratic)


def test_left_symmetry_iff_torsion_vanishes():
    rng = random.Random(2024)
    agree = 0
    positives = 0
    for _ in range(120):
        n = rng.choice([2, 3])
        density = rng.choice([1.0, 0.3])
        sc = random_structure_constants(rng, n, density=density)
        left = is_left_symmetric(sc).ok
        flat = torsion(lsa_to_operator(sc)).is_zero()
        assert left == flat
        agree += 1
        positives += left
    assert agree == 120
    assert positives >= 3


def test_left_symmetry_witness_is_reported():
    sc = StructureConstants.from_relations(2, [(1, 2, 1, 1)])
    check = is_left_symmetric(sc)
    assert bool(check) == check.ok
    if not check.ok:
        i, j, k = check.witness
        assert 1 <= i <= 2 and 1 <= j <= 2 and 1 <= k <= 2


def test_from_relations_accumulates():
    sc = StructureConstants.from_relations(2, [(1, 1, 1, 1), (1, 1, 1, 2)])
    assert sc.relations() == [(1, 1, 1, Scalar(3))]


def test_change_coordinates_identity_and_composition():
    rng = random.Random(6)
    m = op([["2*x1", "-x2"], ["x2", "0"]], 2)
    identity = [[Scalar(1), Scalar(0)], [Scalar(0), Scalar(1)]]
    assert change_coordinates(m, identity) == m
    for _ in range(15):
        t1 = [[Scalar(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        t2 = [[Scalar(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)]
        d1 = t1[0][0] * t1[1][1] - t1[0][1] * t1[1][0]
        d2 = t2[0][0] * t2[1][1] - t2[0][1] * t2[1][0]
        if d1.is_zero() or d2.is_zero():
            continue
        composed = [[sum((t1[i][k] * t2[k][j] for k in range(2)), Scalar(0))
                     for j in range(2)] for i in range(2)]
        assert change_coordinates(change_coordinates(m, t1), t2) \
            == change_coordinates(m, composed)


def test_change_coordinates_preserves_torsion_and_charpoly():
    from linnij.polymatrix import charpoly_sigmas
    m = op([["x1", "-x2"], ["x2", "x1"]], 2)
    t = [[Scalar(1), Scalar(2)], [Scalar(1), Scalar(-1)]]
    moved = change_coordinates(m, t)
    assert torsion(moved).is_zero()
    # sigmas transform by the same substitution x = T y
    expected = [s.substitute_linear(t) for s in charpoly_sigmas(m)]
    assert charpoly_sigmas(moved) == expected


def test_direct_sum_block_structure():
    a = op([["2*x1", "-x2"], ["x2", "0"]], 2)
    b = op([["x1"]], 1)
    total = direct_sum(a, b)
    assert total.rows == 3
    names = default_names(3)
    assert total[0, 0] == parse_poly("2*x1", names)
    assert total[2, 2] == parse_poly("x3", names)
    assert total[0, 2].is_zero() and total[2, 0].is_zero()
    assert torsion(total).is_zero()


def test_differential_nondegeneracy():
    names = default_names(3)
    good = [parse_poly(s, names) for s in ("x1", "x2*x3", "1/3*x3^3")]
    assert is_differentially_nondegenerate(good)
    bad = [parse_poly(s, names) for s in ("x1", "x1^2", "x3")]
    assert not is_differentially_nondegenerate(bad)


def symbolic_nondegenerate(sigmas):
    return not jacobian(list(sigmas)).determinant().is_zero()


def count_symbolic_dets(monkeypatch):
    calls = []
    original = PolyMatrix.determinant

    def counting(self):
        calls.append(self.rows)
        return original(self)

    monkeypatch.setattr(PolyMatrix, "determinant", counting)
    return calls


def test_nondegeneracy_certificate_agrees_with_symbolic_determinant(monkeypatch):
    entries = list(load_catalog())
    for n in range(3, 10):
        entries += [generalized_L1(n), generalized_L2(n)]
        blocks = (n - 1) // 2
        for signs in ([1] * blocks, [-1] * blocks, [(-1) ** b for b in range(blocks)]):
            entries.append(generalized_blocks(n, signs))
    calls = count_symbolic_dets(monkeypatch)
    certified = [is_differentially_nondegenerate(e.sigmas) for e in entries]
    # a nonzero determinant at a seeded point proves every entry
    # nondegenerate, so no answer needed the symbolic route
    assert all(certified) and calls == []
    monkeypatch.undo()
    # the symbolic determinant agrees wherever it is cheap
    assert all(symbolic_nondegenerate(e.sigmas) for e in entries if e.dim <= 6)


def test_nondegeneracy_certificate_falls_back_exactly(monkeypatch):
    names = default_names(3)
    calls = count_symbolic_dets(monkeypatch)

    dependent = [parse_poly(s, names) for s in ("x1+x2", "(x1+x2)^2", "x3")]
    assert not is_differentially_nondegenerate(dependent)
    assert calls == [3]

    # det = x2 vanishes on a hyperplane only: the certificate proves it
    hyperplane = [parse_poly(s, names) for s in ("x1*x2", "x2", "x3")]
    assert is_differentially_nondegenerate(hyperplane)
    assert calls == [3]

    # det = prod_k (x1 - c_k) vanishes at every seeded point; the symbolic
    # determinant still proves it nonzero
    vanishing = Poly.constant(3, Scalar(1))
    for point in seeded_points(3):
        vanishing = vanishing * (Poly.variable(3, 0) - point[0])
    antiderivative = Poly(3, {(e[0] + 1,) + e[1:]: c / (e[0] + 1)
                              for e, c in vanishing.sorted_terms()})
    sigmas = [antiderivative, Poly.variable(3, 1), Poly.variable(3, 2)]
    assert is_differentially_nondegenerate(sigmas)
    assert calls == [3, 3]


def test_random_structure_constants_deterministic():
    a = random_structure_constants(random.Random(9), 3)
    b = random_structure_constants(random.Random(9), 3)
    assert a == b
    sparse = random_structure_constants(random.Random(9), 3, density=0.0)
    assert sparse == StructureConstants.zero(3)
