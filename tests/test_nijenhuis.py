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
    torsion_witness,
)
from linnij.polyring import dot
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
    witness = torsion_witness(m)
    assert witness is not None
    i, j, k, poly = witness
    assert (i, j, k) == (1, 1, 2)
    assert poly == parse_poly("x2", default_names(2))


def reference_torsion(operator):
    """The n^3 components as three sums over whole tables, as the package
    computed them before the component kernel became lazy."""
    n = operator.rows
    L = operator.entries
    zero = Poly.zero(n)
    grad = [[[L[i][j].partial(s) for s in range(n)] for j in range(n)] for i in range(n)]
    # along[j][i][k] = sum_s L^s_j dL^i_k/dx^s
    along = [[[dot(col, grad[i][k], zero) for k in range(n)] for i in range(n)]
             for col in zip(*L)]
    # curl[j][k][s] = dL^s_k/dx^j - dL^s_j/dx^k
    curl = [[[grad[s][k][j] - grad[s][j][k] for s in range(n)] for k in range(n)]
            for j in range(n)]
    return [
        [
            [along[j][i][k] - along[k][i][j] - dot(L[i], curl[j][k], zero)
             for k in range(n)]
            for j in range(n)
        ]
        for i in range(n)
    ]


def random_coefficient(rng):
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-2, 2)
    if kind == 1:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Scalar(rng.randint(-1, 1), rng.randint(-1, 1), 3)


def random_operator(rng, n, linear, density):
    """An n x n operator over n variables: linear homogeneous entries, or
    entries of degree at most 2 with a constant term possible."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            if rng.random() < density:
                for _ in range(rng.randint(1, 2)):
                    if linear:
                        v = rng.randrange(n)
                        exps = tuple(int(u == v) for u in range(n))
                    else:
                        exps = tuple(rng.randint(0, 2) if rng.random() < 0.4 else 0
                                     for _ in range(n))
                    terms[exps] = random_coefficient(rng)
            row.append(Poly(n, terms))
        rows.append(row)
    return PolyMatrix(rows)


def sparse_operator(rng, n, linear):
    """An n x n operator over n variables with about 3n nonzero entries,
    each involving one or two variables."""
    rows = [[Poly.zero(n)] * n for _ in range(n)]
    for place in rng.sample(range(n * n), 3 * n):
        terms = {}
        variables = rng.sample(range(n), rng.randint(1, 2))
        for _ in range(rng.randint(1, 2)):
            if linear:
                v = rng.choice(variables)
                exps = tuple(int(u == v) for u in range(n))
            else:
                exps = tuple(rng.randint(0, 2) if u in variables else 0
                             for u in range(n))
            terms[exps] = random_coefficient(rng)
        rows[place // n][place % n] = Poly(n, terms)
    return PolyMatrix(rows)


def high_degree_operator(rng, n):
    """An n x n operator over n variables whose nonzero entries have one or
    two terms, most of degree 128..255: the entries fit 8-bit exponent
    fields, but their products with each other's derivatives do not."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            terms = {}
            if rng.random() < 0.6:
                for _ in range(rng.randint(1, 2)):
                    left = rng.randint(128, 255) if rng.random() < 0.8 else rng.randint(0, 2)
                    exps = []
                    for _ in range(n - 1):
                        exps.append(rng.randint(0, left))
                        left -= exps[-1]
                    terms[tuple(exps + [left])] = random_coefficient(rng)
            row.append(Poly(n, terms))
        rows.append(row)
    return PolyMatrix(rows)


def seeded_torsion_inputs(rng):
    """Dense and sparse small operators, then at n = 5..9 sparse ones, the
    diagonal diag(x1..xn) and the torsion-free L1 and L2 members, then
    operators with entries of degree 128..255 at n = 1..3."""
    for count in range(2000):
        n = count % 4 + 1
        if count % 5 == 0:
            # sparse structure constants are often left-symmetric
            sc = random_structure_constants(rng, n, density=0.15)
            yield lsa_to_operator(sc)
        else:
            yield random_operator(rng, n, linear=count % 5 < 3,
                                  density=rng.choice([1.0, 0.5, 0.2]))
    for n in range(5, 10):
        for count in range(8):
            yield sparse_operator(rng, n, linear=count % 2 == 0)
            # about 3n structure constants, left-symmetric now and then
            yield lsa_to_operator(
                random_structure_constants(rng, n, density=3 / n ** 2))
        yield PolyMatrix([[Poly.variable(n, i) if i == j else Poly.zero(n)
                           for j in range(n)] for i in range(n)])
        yield generalized_L1(n).operator
        yield generalized_L2(n).operator
    for count in range(60):
        yield high_degree_operator(rng, count % 3 + 1)


def test_torsion_and_witness_match_the_three_sums_seeded():
    rng = random.Random(18)
    flat = 0
    witnesses = set()
    sparse_witnesses = set()
    for operator in seeded_torsion_inputs(rng):
        n = operator.rows
        expected = reference_torsion(operator)
        assert torsion(operator).comp == expected
        first = next(((i + 1, j + 1, k + 1, expected[i][j][k])
                      for i in range(n) for j in range(n) for k in range(n)
                      if not expected[i][j][k].is_zero()), None)
        assert torsion_witness(operator) == first
        flat += first is None
        if first is not None:
            witnesses.add(first[:3])
            if n >= 5:
                sparse_witnesses.add(first[:3])
    assert 100 <= flat <= 1500
    assert len(witnesses) >= 20
    assert len(sparse_witnesses) >= 10


def test_torsion_witness_rejects_a_non_square_operator():
    with pytest.raises(DimensionMismatchError):
        torsion_witness(op([["x1", "x2"]], 2))
    with pytest.raises(DimensionMismatchError):
        torsion(op([["x1"]], 2))


def test_torsion_antisymmetry():
    # N(j,k) = -N(k,j) componentwise in the three sums as written: the
    # identity that lets torsion() form only the components with j < k
    rng = random.Random(4)
    operators = [lsa_to_operator(random_structure_constants(rng, 3))
                 for _ in range(20)]
    operators += [random_operator(rng, 3, linear=False, density=0.7)
                  for _ in range(20)]
    for operator in operators:
        comp = reference_torsion(operator)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    assert comp[i][j][k] == -comp[i][k][j]


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


@pytest.mark.parametrize("bad", [True, False, 1.0, 2.0, 1.5, "1", None],
                         ids=["true", "false", "1.0", "2.0", "1.5", "str", "none"])
def test_from_relations_takes_int_indices_only(bad):
    # True and 1.0 compare and hash like 1, but are not indices
    for position in range(3):
        relation = [1, 1, 1, 1]
        relation[position] = bad
        with pytest.raises(DimensionMismatchError):
            StructureConstants.from_relations(2, [tuple(relation)])


# -- the dense structure constants, as the package held them before ---------


def dense_cube(a):
    """The constructor: every entry of the cube coerced to a Scalar."""
    return tuple(tuple(tuple(v if isinstance(v, Scalar) else Scalar(v) for v in row)
                       for row in plane) for plane in a)


def dense_from_relations(n, relations):
    a = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, coeff in relations:
        value = coeff if isinstance(coeff, Scalar) else Scalar(coeff)
        a[i - 1][j - 1][k - 1] = a[i - 1][j - 1][k - 1] + value
    return dense_cube(a)


def dense_relations(a):
    n = len(a)
    return [(i + 1, j + 1, k + 1, a[i][j][k])
            for i in range(n) for j in range(n) for k in range(n)
            if not a[i][j][k].is_zero()]


def dense_lsa_to_operator(a):
    n = len(a)
    xs = [Poly.variable(n, j) for j in range(n)]
    zero = Poly.zero(n)
    return PolyMatrix([[dot([row[k] for row in a[i]], xs, zero) for i in range(n)]
                       for k in range(n)])


def dense_operator_to_lsa(operator):
    n = operator.rows
    a = [[[Scalar(0)] * n for _ in range(n)] for _ in range(n)]
    for k in range(n):
        for i in range(n):
            for j, coeff in enumerate(operator.entries[k][i].linear_coefficients()):
                a[i][j][k] = coeff
    return dense_cube(a)


def coefficient_of_kind(rng, kind):
    value = 0
    while not value:
        if kind == "int":
            value = rng.randint(-3, 3)
        elif kind == "fraction":
            value = Fraction(rng.randint(-3, 3), rng.randint(2, 4))
        else:
            value = Scalar(rng.randint(-1, 1), rng.choice([-1, 1]), 3)
    return value


def seeded_cubes(rng):
    """Dense cubes of raw and Scalar entries, n = 1..9, three densities and
    three coefficient kinds (int, Fraction, sqrt(3))."""
    for n in range(1, 10):
        for density in (1.0, 0.3, 0.15):
            for kind in ("int", "fraction", "sqrt3"):
                cube = [[[coefficient_of_kind(rng, kind) if rng.random() < density else 0
                          for _ in range(n)] for _ in range(n)] for _ in range(n)]
                for plane in cube:
                    for row in plane:
                        for k, v in enumerate(row):
                            if rng.random() < 0.5 and not isinstance(v, Scalar):
                                row[k] = Scalar(v)
                yield cube


def test_structure_constants_match_the_dense_code_seeded():
    rng = random.Random(2020)
    seen = []
    for cube in seeded_cubes(rng):
        n = len(cube)
        dense = dense_cube(cube)
        sc = StructureConstants(cube)
        assert sc.n == n and sc.a == dense
        assert sc.relations() == dense_relations(dense)
        # the same algebra from relations: coefficients split in two,
        # and cancelling pairs where the cube is zero
        relations = []
        for i, j, k, c in sc.relations():
            relations += [(i, j, k, c - 1), (i, j, k, 1)]
        for _ in range(3):
            i, j, k = (rng.randint(1, n) for _ in range(3))
            if dense[i - 1][j - 1][k - 1].is_zero():
                relations += [(i, j, k, 2), (i, j, k, Scalar(-2))]
        rng.shuffle(relations)
        built = StructureConstants.from_relations(n, relations)
        assert built.a == dense_from_relations(n, relations) == dense
        assert built == sc and hash(built) == hash(sc)
        operator = lsa_to_operator(sc)
        assert operator == dense_lsa_to_operator(dense)
        back = operator_to_lsa(operator)
        assert back.a == dense_operator_to_lsa(operator) == dense
        assert back == sc and hash(back) == hash(sc)
        seen.append((sc, dense))
    # equality and hashing agree with the dense cubes on every pair
    for first, first_dense in seen[::3]:
        for second, second_dense in seen[::3]:
            assert (first == second) == (first_dense == second_dense)
    assert StructureConstants.zero(4).a == dense_cube([[[0] * 4] * 4] * 4)


def test_operator_to_lsa_matches_the_dense_code_on_the_families():
    operators = [entry.operator for entry in load_catalog()]
    for n in range(3, 13):
        operators += [generalized_L1(n).operator, generalized_L2(n).operator,
                      generalized_blocks(n).operator]
    for operator in operators:
        sc = operator_to_lsa(operator)
        dense = dense_operator_to_lsa(operator)
        assert sc.a == dense and sc.relations() == dense_relations(dense)
        assert lsa_to_operator(sc) == dense_lsa_to_operator(dense) == operator


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
    antiderivative = Poly(3, {(e[0] + 1,) + e[1:]: Fraction(c, e[0] + 1)
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
