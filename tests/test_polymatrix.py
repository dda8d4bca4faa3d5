import random
from fractions import Fraction

import pytest

from linnij.errors import (
    DependentSigmasError, DimensionMismatchError, SingularMatrixError)
from linnij.exactfield import Scalar
from linnij.nijenhuis import torsion
from linnij.polyring import DivisibilityFailure, Poly, dot, exact_divide
from linnij.polymatrix import (
    PolyMatrix,
    charpoly_sigmas,
    companion_matrix,
    jacobian,
    scalar_mat_det,
    scalar_mat_inverse,
    scalar_mat_mul,
    scalar_solve,
    seeded_points,
)
from linnij.reconstruct import reconstruction_pieces
from linnij.textio import default_names, parse_poly


def p3(text):
    return parse_poly(text, default_names(3))


def random_matrix(rng, n, maxdeg=1):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            q = Poly.zero(n)
            for _ in range(rng.randint(0, 2)):
                exps = [0] * n
                for _ in range(rng.randint(0, maxdeg)):
                    exps[rng.randrange(n)] += 1
                q = q + Poly.monomial(n, tuple(exps),
                                      Scalar(rng.randint(-3, 3)))
            row.append(q)
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


def test_determinant_matches_cofactor_expansion():
    rng = random.Random(2)
    for n in (1, 2, 3, 4):
        for _ in range(12):
            m = random_matrix(rng, n)
            assert m.determinant() == m.determinant_cofactor()


def test_determinant_multiplicativity():
    rng = random.Random(8)
    for _ in range(15):
        a = random_matrix(rng, 3)
        b = random_matrix(rng, 3)
        assert (a @ b).determinant() == a.determinant() * b.determinant()


def test_adjugate_identity():
    rng = random.Random(31)
    for n in (2, 3):
        for _ in range(10):
            m = random_matrix(rng, n)
            det = m.determinant()
            prod = m @ m.adjugate()
            for i in range(n):
                for j in range(n):
                    expected = det if i == j else Poly.zero(n)
                    assert prod[i, j] == expected


def test_jacobian_hand_value():
    sigmas = [p3("x1"), p3("x2*x3"), p3("1/3*x3^3")]
    j = jacobian(sigmas)
    assert j[0, 0] == p3("1")
    assert j[0, 1] == p3("0")
    assert j[1, 1] == p3("x3")
    assert j[1, 2] == p3("x2")
    assert j[2, 2] == p3("x3^2")


def test_charpoly_of_companion_matrix_round_trips():
    # the companion matrix of (s1, ..., sn) has exactly those coefficients
    rng = random.Random(55)
    for n in (2, 3, 4):
        for _ in range(10):
            sigmas = []
            for k in range(1, n + 1):
                q = Poly.zero(n)
                for _ in range(2):
                    exps = [0] * n
                    for _ in range(k):
                        exps[rng.randrange(n)] += 1
                    q = q + Poly.monomial(n, tuple(exps),
                                          Scalar(rng.randint(-2, 2)))
                sigmas.append(q)
            assert charpoly_sigmas(companion_matrix(sigmas)) == sigmas


def test_charpoly_hand_value():
    # [[2x, -y], [y, 0]]: trace 2x, det y^2
    names = ["x1", "x2"]
    m = PolyMatrix((
        (parse_poly("2*x1", names), parse_poly("-x2", names)),
        (parse_poly("x2", names), parse_poly("0", names)),
    ))
    assert charpoly_sigmas(m) == [parse_poly("-2*x1", names),
                                  parse_poly("x2^2", names)]


def random_operator(rng, n, kind):
    """Seeded n x n operator of one entry kind: linear, nonlinear (degree
    up to 3), sparse (about one entry in four nonzero) or sqrt3 (linear
    with coefficients in Q(sqrt(3)))."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            q = Poly.zero(n)
            if kind != "sparse" or rng.random() < 0.25:
                for _ in range(rng.randint(1, 2)):
                    exps = [0] * n
                    degree = rng.randint(0, 3) if kind == "nonlinear" else 1
                    for _ in range(degree):
                        exps[rng.randrange(n)] += 1
                    coeff = Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
                    if kind == "sqrt3":
                        coeff = coeff + Scalar(0, rng.randint(-2, 2), 3)
                    q = q + Poly.monomial(n, tuple(exps), coeff)
            row.append(q)
        rows.append(tuple(row))
    return PolyMatrix(tuple(rows))


KINDS = ("linear", "nonlinear", "sparse", "sqrt3")


def test_charpoly_via_shifted_determinant():
    # det(t*I - L) expanded by cofactors, bucketed by powers of t
    rng = random.Random(77)
    for n in (1, 2, 3, 4, 5):
        for kind in KINDS:
            for _ in range(3 if n < 5 else 1):
                m = random_operator(rng, n, kind)
                t = Poly.variable(n + 1, n)
                shifted = PolyMatrix(tuple(
                    tuple((t if i == j else Poly.zero(n + 1)) - m[i, j].embed(n + 1)
                          for j in range(n))
                    for i in range(n)))
                char = shifted.determinant_cofactor()
                expected = t ** n
                for k, s in enumerate(charpoly_sigmas(m), start=1):
                    expected = expected + s.embed(n + 1) * t ** (n - k)
                assert char == expected, (n, kind)


def to_sympy(p, symbols):
    import sympy

    total = sympy.Integer(0)
    for exps, c in p.terms.items():
        coeff = sympy.Rational(c.rat.numerator, c.rat.denominator)
        if c.rad:
            coeff += sympy.Rational(c.irr.numerator, c.irr.denominator) \
                * sympy.sqrt(c.rad)
        total += coeff * sympy.Mul(*(x ** e for x, e in zip(symbols, exps)))
    return total


def test_charpoly_det_adjugate_match_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1984)
    for n in (1, 2, 3, 4):
        symbols = sympy.symbols("x1:%d" % (n + 1))
        t = sympy.Symbol("t")
        for kind in KINDS:
            m = random_operator(rng, n, kind)
            ref = sympy.Matrix(n, n, lambda i, j: to_sympy(m[i, j], symbols))

            def same(ours, theirs):
                return sympy.expand(to_sympy(ours, symbols) - theirs) == 0

            coeffs = ref.charpoly(t, simplify=sympy.expand).all_coeffs()
            assert sympy.expand(coeffs[0]) == 1
            assert all(same(s, c) for s, c in zip(charpoly_sigmas(m), coeffs[1:])), \
                (n, kind)
            assert same(m.determinant(), ref.det(method="berkowitz")), (n, kind)
            adj, ref_adj = m.adjugate(), ref.adjugate(method="berkowitz")
            assert all(same(adj[i, j], ref_adj[i, j])
                       for i in range(n) for j in range(n)), (n, kind)


def test_torsion_matches_sympy():
    # every component against the four-term formula
    # L^s_j d_s L^i_k - L^s_k d_s L^i_j - L^i_s d_j L^s_k + L^i_s d_k L^s_j
    sympy = pytest.importorskip("sympy")
    rng = random.Random(6)
    for n in (1, 2, 3, 4):
        symbols = sympy.symbols("x1:%d" % (n + 1))
        for kind in KINDS:
            m = random_operator(rng, n, kind)
            ref = [[to_sympy(m[i, j], symbols) for j in range(n)] for i in range(n)]

            def d(expr, s):
                return sympy.diff(expr, symbols[s])

            tensor = torsion(m)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        expected = sum(
                            ref[s][j] * d(ref[i][k], s) - ref[s][k] * d(ref[i][j], s)
                            - ref[i][s] * d(ref[s][k], j) + ref[i][s] * d(ref[s][j], k)
                            for s in range(n))
                        ours = to_sympy(tensor.component(i + 1, j + 1, k + 1), symbols)
                        assert sympy.expand(ours - expected) == 0, (n, kind, i, j, k)


def test_exact_divide_matches_sympy():
    # a divisor that divides gives sympy's quotient; one that does not gives
    # a remainder r with q | p - r whose leading term q's leading term
    # cannot reduce
    sympy = pytest.importorskip("sympy")
    rng = random.Random(31)
    outcomes = set()
    for n in (1, 2, 3, 4):
        symbols = sympy.symbols("x1:%d" % (n + 1))

        def poly(p):
            # over Q(sqrt(3)) when a coefficient needs it, so division is exact
            return sympy.Poly(to_sympy(p, symbols), *symbols, extension=True)

        for kind in KINDS:
            for _ in range(6):
                m = random_operator(rng, n, kind)
                entries = [m[i, j] for i in range(n) for j in range(n)]
                divisor = rng.choice(entries) + rng.choice(entries)
                if divisor.is_zero():
                    continue
                p = rng.choice(entries) * divisor
                if rng.random() < 0.5:
                    p = p + rng.choice(entries)
                ref_quotient, ref_rem = poly(p).div(poly(divisor))
                result = exact_divide(p, divisor)
                if ref_rem.is_zero:
                    assert not isinstance(result, DivisibilityFailure), (n, kind)
                    assert (poly(result) - ref_quotient).is_zero, (n, kind)
                    outcomes.add("divides")
                    continue
                assert isinstance(result, DivisibilityFailure), (n, kind)
                rem = poly(result.remainder)
                assert (poly(p) - rem).div(poly(divisor))[1].is_zero, (n, kind)
                lead_rem = rem.monoms(order="grlex")[0]
                lead_q = poly(divisor).monoms(order="grlex")[0]
                assert any(a < b for a, b in zip(lead_rem, lead_q)), (n, kind)
                outcomes.add("fails")
    assert outcomes == {"divides", "fails"}


def test_at_matches_evaluate_entrywise():
    # one exponent bound serves entries of different degrees, a zero entry
    # and zero coordinates, at every point of one call
    rng = random.Random(23)
    for n in (1, 2, 3):
        for _ in range(20):
            m = PolyMatrix([row + (Poly.zero(n),)
                            for row in random_matrix(rng, n, maxdeg=3).entries])
            points = [[Scalar(rng.randint(-2, 2)) for _ in range(n)]
                      for _ in range(3)]
            assert list(m.at(points)) == [
                [[p.evaluate(point) for p in row] for row in m.entries]
                for point in points]
    assert list(PolyMatrix([[p3("x1")]]).at([])) == []
    with pytest.raises(DimensionMismatchError):
        next(PolyMatrix([[p3("x1")]]).at([[Scalar(1)]]))


def test_at_yields_one_point_at_a_time():
    # a consumer that stops early leaves the later points unread
    m = PolyMatrix([[p3("x1*x2 + x3^2")]])

    def points():
        yield [Scalar(1), Scalar(2), Scalar(3)]
        raise AssertionError("read past the first point")

    assert next(m.at(points())) == [[Scalar(11)]]


def test_seeded_points_are_a_fixed_budget():
    for n in (1, 3, 9):
        points = list(seeded_points(n))
        assert points == list(seeded_points(n))
        assert len(points) == 2 * n + 4
        assert all(len(p) == n and all(-50 <= v.rat <= 50 and v.rat.denominator == 1
                                       and not v.irr for v in p) for p in points)


def test_substitute_linear_on_matrix():
    m = PolyMatrix(((p3("x1"), p3("x2")), (p3("x3"), p3("0"))))
    t = [[Scalar(0), Scalar(1), Scalar(0)],
         [Scalar(1), Scalar(0), Scalar(0)],
         [Scalar(0), Scalar(0), Scalar(2)]]
    swapped = m.substitute_linear(t)
    assert swapped[0, 0] == p3("x2")
    assert swapped[1, 0] == p3("2*x3")


def test_scalar_matrix_helpers():
    a = [[Scalar(2), Scalar(1)], [Scalar(1), Scalar(1)]]
    inv = scalar_mat_inverse(a)
    assert scalar_mat_mul(a, inv) == [[Scalar(1), Scalar(0)],
                                      [Scalar(0), Scalar(1)]]
    assert scalar_mat_det(a) == Scalar(1)
    with pytest.raises(SingularMatrixError):
        scalar_mat_inverse([[Scalar(1), Scalar(2)], [Scalar(2), Scalar(4)]])


# -- the shared elimination against the eliminations it replaced ----------------


def reference_dependent_sigma_indices(sigmas):
    """Division-free elimination of the Jacobian rows, as the package did
    it before every elimination shared one routine."""
    geo = len(sigmas)
    j = jacobian(sigmas, wrt=range(geo))
    rows = [list(r) for r in j.entries]
    pivots = []  # (row, column)
    dependent = []
    for i, row in enumerate(rows):
        for p, c in pivots:
            if not row[c].is_zero():
                factor = row[c]
                lead = rows[p][c]
                row = [lead * row[m] - factor * rows[p][m] for m in range(geo)]
        if all(v.is_zero() for v in row):
            dependent.append(i + 1)
        else:
            rows[i] = row
            col = next(m for m in range(geo) if not row[m].is_zero())
            pivots.append((i, col))
    return dependent


def reference_scalar_mat_det(matrix):
    """Gauss elimination with row swaps, as the package did it before."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    det = Scalar(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return Scalar(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det = det * a[col][col]
        scale = a[col][col].inverse()
        for r in range(col + 1, n):
            if a[r][col].is_zero():
                continue
            factor = a[r][col] * scale
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
    return det


def reference_scalar_mat_inverse(matrix):
    """Gauss-Jordan carrying the identity along, as the package did it
    before one elimination gave the scalar determinant, inverse and
    solve; None for a singular matrix."""
    n = len(matrix)
    a = [list(row) for row in matrix]
    inv = [[Scalar(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        scale = a[col][col].inverse()
        a[col] = [v * scale for v in a[col]]
        inv[col] = [v * scale for v in inv[col]]
        for r in range(n):
            if r == col or a[r][col].is_zero():
                continue
            factor = a[r][col]
            a[r] = [v - factor * w for v, w in zip(a[r], a[col])]
            inv[r] = [v - factor * w for v, w in zip(inv[r], inv[col])]
    return inv


def planted_positions(rng, n):
    """Positions 1..n-1 chosen to depend on the rows above them."""
    return {k for k in range(1, n) if rng.random() < 0.3}


def random_scalar_rows(rng, n, irrational):
    """An n x n scalar matrix, about a third of its entries zero, with some
    rows planted as combinations of the rows above; returns the rows and
    the planted positions.  Some entries carry sqrt(3) if ``irrational``."""
    root3 = Scalar(0, 1, 3)
    rows = []
    depends = planted_positions(rng, n)
    for k in range(n):
        if k in depends:
            weights = [Scalar(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
                       for _ in range(k)]
            rows.append([sum((w * row[j] for w, row in zip(weights, rows)),
                             Scalar(0)) for j in range(n)])
            continue
        row = []
        for _ in range(n):
            # zeros force pivots off the diagonal
            roll = rng.random()
            if roll < 0.35:
                row.append(Scalar(0))
            elif roll < 0.9 or not irrational:
                row.append(Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 4))))
            else:
                row.append(root3 * rng.randint(-3, 3) + rng.randint(-3, 3))
        rows.append(row)
    return rows, depends


def random_sparse_poly(rng, n):
    q = Poly.zero(n)
    for _ in range(rng.randint(1, 3)):
        exps = [0] * n
        for _ in range(rng.randint(1, 2)):
            exps[rng.randrange(n)] += 1
        q = q + Poly.monomial(n, tuple(exps), Scalar(rng.randint(-3, 3)))
    return q


def test_dependent_sigmas_match_division_free_reference():
    rng = random.Random(57)
    planted = 0
    for n in range(2, 7):
        for _ in range(8):
            depends = planted_positions(rng, n)
            order = rng.sample(range(n), n)
            sigmas = []
            for k in range(n):
                if k in depends:
                    # a polynomial in the sigmas above is functionally dependent
                    a, b = rng.randrange(k), rng.randrange(k)
                    sigmas.append(sigmas[a] * sigmas[b] + sigmas[b] * rng.randint(-2, 2))
                else:
                    # a shuffled variable keeps the unplanted rows independent
                    # mostly, and moves the pivots off the diagonal
                    sigmas.append(random_sparse_poly(rng, n)
                                  + Poly.variable(n, order[k]))
            expected = reference_dependent_sigma_indices(sigmas)
            j = jacobian(sigmas)
            assert [i + 1 for i in j.dependent_rows()] == expected, (n, sigmas)
            assert {k + 1 for k in depends} <= set(expected)
            planted += len(depends)
            singular = j.determinant().is_zero()
            assert singular == bool(expected)
            if singular:
                with pytest.raises(DependentSigmasError) as err:
                    reconstruction_pieces(sigmas)
                assert err.value.indices == expected
    assert planted >= 10


def test_scalar_determinant_matches_gauss_reference():
    rng = random.Random(58)
    singular = 0
    for n in range(1, 7):
        for trial in range(20):
            rows, depends = random_scalar_rows(rng, n, trial % 2 == 0)
            expected = reference_scalar_mat_det(rows)
            assert scalar_mat_det(rows) == expected, rows
            if depends:
                assert expected.is_zero()
            singular += expected.is_zero()
    assert 20 <= singular <= 80
    # integer matrices the size of the certificate's Jacobians, mostly sparse
    for n in range(7, 10):
        for trial in range(6):
            rows = [[rng.randint(-1000, 1000) if rng.random() < 0.4 else 0
                     for _ in range(n)] for _ in range(n)]
            planted = trial % 3 == 0
            if planted:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
            rows = [[Scalar(v) for v in row] for row in rows]
            expected = reference_scalar_mat_det(rows)
            assert scalar_mat_det(rows) == expected, rows
            assert expected.is_zero() or not planted


def test_scalar_matrix_inverse_seeded():
    rng = random.Random(100)
    singular = 0
    for n in range(1, 7):
        for trial in range(12):
            rows, depends = random_scalar_rows(rng, n, trial % 2 == 0)
            expected = reference_scalar_mat_inverse(rows)
            if expected is None:
                with pytest.raises(SingularMatrixError):
                    scalar_mat_inverse(rows)
                singular += 1
                continue
            assert not depends
            inverse = scalar_mat_inverse(rows)
            assert inverse == expected, rows
            identity = [[Scalar(1 if i == j else 0) for j in range(n)]
                        for i in range(n)]
            assert scalar_mat_mul(rows, inverse) == identity
    assert 10 <= singular <= 50


def test_scalar_solve_polynomial_right_hand_side():
    # t times the solution, by dot, gives back b
    rng = random.Random(101)
    solved = singular = 0
    for n in range(1, 6):
        for trial in range(10):
            t, _ = random_scalar_rows(rng, n, trial % 2 == 0)
            b = [[random_sparse_poly(rng, n) for _ in range(rng.randint(1, 3))]]
            b += [[random_sparse_poly(rng, n) for _ in b[0]] for _ in range(n - 1)]
            if reference_scalar_mat_det(t).is_zero():
                with pytest.raises(SingularMatrixError):
                    scalar_solve(t, b)
                singular += 1
                continue
            x = scalar_solve(t, b)
            zero = Poly.zero(n)
            assert [[dot(row, col, zero) for col in zip(*x)] for row in t] == b
            solved += 1
    assert solved >= 15 and singular >= 10
