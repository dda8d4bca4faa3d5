import random
from fractions import Fraction

import pytest

from linnij.catalog import (
    generalized_L1, generalized_L2, generalized_blocks, load_catalog)
from linnij.errors import (
    DependentSigmasError, DimensionMismatchError, SingularMatrixError)
from linnij.exactfield import Scalar, parts
from linnij.nijenhuis import change_coordinates, torsion
from linnij.polyring import DivisibilityFailure, Poly, dot, exact_divide, exponent_sets
from linnij.polymatrix import (
    PolyMatrix,
    _eliminate,
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


# -- the dense products, as the package formed them before ----------------


def dense_matmul(a, b):
    zero = Poly.zero(a.nvars)
    cols = list(zip(*b.entries))
    return PolyMatrix([[dot(row, col, zero) for col in cols] for row in a.entries])


def dense_charpoly(operator):
    """Berkowitz over whole rows and columns."""
    n = operator.rows
    a = operator.entries
    zero = Poly.zero(operator.nvars)
    one = Poly.constant(operator.nvars, Scalar(1))
    coeffs = [one, -a[n - 1][n - 1]]
    for k in range(n - 2, -1, -1):
        row = a[k][k + 1:]
        toeplitz = [one, -a[k][k]]
        vec = [a[i][k] for i in range(k + 1, n)]
        for power in range(n - 1 - k):
            if power:
                vec = [dot(a[i][k + 1:], vec, zero) for i in range(k + 1, n)]
            toeplitz.append(-dot(row, vec, zero))
        # coefficient i sums toeplitz[i - m] * coeffs[m] over the m < len(coeffs)
        coeffs = [dot(toeplitz[i::-1][:len(coeffs)], coeffs[:i + 1], zero)
                  for i in range(len(coeffs) + 1)]
    assert coeffs[0] == one
    return coeffs[1:]


def test_charpoly_matches_the_dense_code_where_powers_vanish():
    # strictly triangular and nilpotent operators: M^p C vanishes before
    # the last power, and the sigmas are those of the full loop
    rng = random.Random(33)
    for n in range(1, 9):
        for _ in range(6):
            upper = [[random_sparse_poly(rng, n) if j > i and rng.random() < 0.6
                      else Poly.zero(n) for j in range(n)] for i in range(n)]
            lower = [list(row) for row in zip(*upper)]
            for rows in (upper, lower):
                m = PolyMatrix(rows)
                assert charpoly_sigmas(m) == dense_charpoly(m) == [Poly.zero(n)] * n
            if n <= 5:
                # a nilpotent operator conjugated out of triangular form
                linear = [[Poly.variable(n, rng.randrange(n)).scale(rng.randint(-2, 2))
                           if j > i else Poly.zero(n) for j in range(n)] for i in range(n)]
                t = [[rng.randint(-2, 2) + (i == j) * 3 for j in range(n)]
                     for i in range(n)]
                if scalar_mat_det(t):
                    m = change_coordinates(PolyMatrix(linear), t)
                    assert charpoly_sigmas(m) == dense_charpoly(m) == [Poly.zero(n)] * n
            # triangular with a diagonal: sigmas from the diagonal alone
            diagonal = [random_sparse_poly(rng, n) for _ in range(n)]
            m = PolyMatrix([[diagonal[i] if i == j else upper[i][j] for j in range(n)]
                            for i in range(n)])
            assert charpoly_sigmas(m) == dense_charpoly(m)
            assert charpoly_sigmas(m) == charpoly_sigmas(PolyMatrix(
                [[diagonal[i] if i == j else Poly.zero(n) for j in range(n)]
                 for i in range(n)]))


def sparse_matrix(rng, rows, cols, nvars, density, linear=False):
    """About ``density`` of the entries nonzero, of degree at most 2 or
    linear, some with sqrt(3) coefficients."""
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            q = Poly.zero(nvars)
            if rng.random() < density:
                if linear:
                    q = sum((Poly.variable(nvars, v).scale(Scalar(rng.randint(1, 3)))
                             for v in rng.sample(range(nvars), rng.randint(1, 2))), q)
                else:
                    q = random_sparse_poly(rng, nvars)
                if rng.random() < 0.2:
                    q = q.scale(Scalar(1, 1, 3))
            row.append(q)
        out.append(row)
    return PolyMatrix(out)


def product_and_charpoly_inputs(rng):
    """(operator, sigmas) of the catalog entries and of the L1, L2 and
    blocks members at n = 3..12; then seeded sparse operators, n = 1..9,
    with None for sigmas: from n = 6 on, about 2n and n nonzero linear
    entries, as in the families, since denser or quadratic ones swell past
    test time."""
    entries = list(load_catalog())
    for n in range(3, 13):
        entries += [generalized_L1(n), generalized_L2(n), generalized_blocks(n)]
    for entry in entries:
        yield entry.operator, entry.sigmas
    for n in range(1, 10):
        for density in ((0.5, 0.25, 0.1) if n <= 5 else (2 / n, 1 / n)):
            yield sparse_matrix(rng, n, n, n, density, linear=n > 5), None


def test_products_and_charpoly_match_the_dense_code():
    rng = random.Random(4242)
    for operator, sigmas in product_and_charpoly_inputs(rng):
        computed = charpoly_sigmas(operator)
        assert computed == dense_charpoly(operator)
        if sigmas is not None:
            assert computed == list(sigmas)
        else:
            sigmas = computed
        assert operator @ operator == dense_matmul(operator, operator)
        # the two products of the covariance check
        jac = jacobian(list(sigmas))
        companion = companion_matrix(list(sigmas))
        assert jac @ operator == dense_matmul(jac, operator)
        assert companion @ jac == dense_matmul(companion, jac)
    # rectangular products, with whole zero rows and columns now and then
    for _ in range(60):
        rows, inner, cols = (rng.randint(1, 6) for _ in range(3))
        nvars = rng.randint(1, 4)
        density = rng.choice([0.6, 0.3, 0.1])
        a = sparse_matrix(rng, rows, inner, nvars, density)
        b = sparse_matrix(rng, inner, cols, nvars, density)
        assert a @ b == dense_matmul(a, b)


def to_sympy(p, symbols):
    import sympy

    total = sympy.Integer(0)
    for exps, c in p.sorted_terms():
        rat, irr, rad = parts(c)
        coeff = sympy.Rational(rat.numerator, rat.denominator)
        if rad:
            coeff += sympy.Rational(irr.numerator, irr.denominator) \
                * sympy.sqrt(rad)
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
        assert all(len(p) == n and all(type(v) is int and -50 <= v <= 50 for v in p)
                   for p in points)


def test_substitute_linear_on_matrix():
    m = PolyMatrix(((p3("x1"), p3("x2")), (p3("x3"), p3("0"))))
    t = [[Scalar(0), Scalar(1), Scalar(0)],
         [Scalar(1), Scalar(0), Scalar(0)],
         [Scalar(0), Scalar(0), Scalar(2)]]
    swapped = m.substitute_linear(t)
    assert swapped[0, 0] == p3("x2")
    assert swapped[1, 0] == p3("2*x3")


def reference_substitute_linear(p, t):
    """x_i -> sum_j t[i][j] y_j, term by term through the public ring."""
    ncols = len(t[0])
    images = [sum((Poly.variable(ncols, j) * v for j, v in enumerate(row) if v),
                  Poly.zero(ncols)) for row in t]
    total = Poly.zero(ncols)
    for exps, coeff in p.terms.items():
        term = Poly.constant(ncols, coeff)
        for image, e in zip(images, exps):
            term = term * image ** e
        total = total + term
    return total


def test_matrix_substitution_builds_each_image_power_once(monkeypatch):
    rng = random.Random(3101)
    root3 = Scalar(0, 1, 3)
    calls = []
    power = Poly.__pow__
    monkeypatch.setattr(Poly, "__pow__", lambda p, e: calls.append(e) or power(p, e))
    for trial in range(12):
        n = rng.randint(1, 4)
        entries = [[random_sparse_poly(rng, n) * rng.choice([1, Fraction(1, 3), root3])
                    for _ in range(n)] for _ in range(n)]
        ncols = rng.randint(1, 4)
        t = [[rng.choice([0, 1, -2, Fraction(1, 2), root3]) for _ in range(ncols)]
             for _ in range(n)]
        del calls[:]
        result = PolyMatrix(entries).substitute_linear(t)
        # one power per variable and exponent that occurs in the matrix
        assert len(calls) == sum(len(e) for e in exponent_sets(n, (p for row in entries for p in row)))
        assert result.entries == tuple(tuple(reference_substitute_linear(p, t) for p in row)
                                       for row in entries)
        assert result.entries == tuple(tuple(p.substitute_linear(t) for p in row)
                                       for row in entries)


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


# -- the narrow elimination against the Scalar one it replaced -----------------


def reference_gauss_jordan(a, b):
    """The shared elimination as it ran on Scalar values only, every step
    through Scalar arithmetic: (det a, a^-1 b), the solution None when
    det a is 0."""
    n = len(a)
    rows = [list(left) + list(right) for left, right in zip(a, b)]
    full = any(b)
    det = Scalar(1)
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return Scalar(0), None
        if p != c:
            rows[c], rows[p] = rows[p], rows[c]
            det = -det
        pivot = rows[c][c]
        det = det * pivot
        scale = pivot.inverse()
        tail = [v * scale if v else v for v in rows[c][c + 1 :]]
        rows[c][c + 1 :] = tail
        for r in range(0 if full else c + 1, n):
            f = rows[r][c]
            if r == c or not f:
                continue
            rows[r][c + 1 :] = [v - f * w if w else v
                                for v, w in zip(rows[r][c + 1 :], tail)]
    return det, [row[n:] for row in rows]


def is_narrow(value):
    """An int, a Fraction that is not integral, or a Scalar with a nonzero
    irrational part: the ring's narrow coefficient types."""
    if type(value) is Fraction:
        return value.denominator != 1
    if type(value) is Scalar:
        return bool(value.irr)
    return type(value) is int


def elimination_inputs(rng):
    """(a, b) pairs: rational and sqrt(3) matrices with planted dependent
    rows and integer matrices of certificate size, each with a rational
    right-hand side and with its determinant-only form ()."""
    cases = []
    for n in range(1, 7):
        for trial in range(12):
            rows, _ = random_scalar_rows(rng, n, trial % 2 == 0)
            cases.append(rows)
    for n in range(7, 10):
        for trial in range(6):
            rows = [[rng.randint(-1000, 1000) if rng.random() < 0.4 else 0
                     for _ in range(n)] for _ in range(n)]
            if trial % 3 == 0:
                rows[-1] = [2 * a - b for a, b in zip(rows[0], rows[1])]
            cases.append([[Scalar(v) for v in row] for row in rows])
    for a in cases:
        n = len(a)
        yield a, [()] * n
        yield a, [[Scalar(Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
                   for _ in range(2)] for _ in range(n)]


def test_narrow_elimination_matches_the_scalar_one_seeded():
    rng = random.Random(2201)
    singular = irrational = 0
    for a, b in elimination_inputs(rng):
        det, solution = _eliminate(a, b)
        expected_det, expected = reference_gauss_jordan(a, b)
        if expected is None:
            assert (det, solution) == (0, None), (a, b)
        elif any(b):
            # a solve leaves the determinant out
            assert det is None and solution == expected, (a, b)
        else:
            assert det == expected_det and is_narrow(det), (a, b)
            assert solution == [[]] * len(a), (a, b)
        irrational += any(v.irr for row in a for v in row)
        if solution is None:
            singular += 1
            continue
        for row in solution:
            for v in row:
                assert is_narrow(v), v
    assert singular >= 40 and irrational >= 40, (singular, irrational)


def low_rank_rows(rng, n, rank, irrational):
    """An n x n matrix of the given rank < n, the product of an n x rank
    and a rank x n matrix, some entries sqrt(3) multiples if ``irrational``."""
    def entry():
        value = Scalar(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
        return value * Scalar(0, 1, 3) if irrational and rng.random() < 0.3 else value
    left = [[entry() for _ in range(rank)] for _ in range(n)]
    right = [[entry() for _ in range(n)] for _ in range(rank)]
    return [[sum((l * r[j] for l, r in zip(row, right)), Scalar(0)) for j in range(n)]
            for row in left]


def test_rank_deficient_matrices_are_singular_seeded():
    rng = random.Random(3102)
    for n in range(1, 7):
        for rank in range(n):
            for irrational in (False, True):
                a = low_rank_rows(rng, n, rank, irrational)
                assert reference_scalar_mat_det(a) == 0
                assert scalar_mat_det(a) == 0 and type(scalar_mat_det(a)) is int
                assert _eliminate(a, [()] * n) == (0, None)
                assert _eliminate(a, [[1] * 2 for _ in range(n)]) == (0, None)
                with pytest.raises(SingularMatrixError):
                    scalar_solve(a, [[Fraction(k + 1, 2)] for k in range(n)])
                with pytest.raises(SingularMatrixError):
                    scalar_mat_inverse(a)


def test_scalar_solve_takes_scalars_only():
    # a polynomial entry of b is the TypeError of any entry that is not an
    # exact scalar, on an integer row or not, singular matrix or not
    x1 = Poly.variable(2, 0)
    for a in ([[1, 2], [3, 4]], [[1, 2], [2, 4]], [[Fraction(1, 2), 2], [3, 4]]):
        for b in ([[x1], [1]], [[1], [Poly.constant(2, 1)]]):
            with pytest.raises(TypeError):
                scalar_solve(a, b)


# -- coordinate changes against the Scalar elimination ------------------------


def random_sparse_operator(rng, n):
    """An n x n matrix of sparse polynomials in n variables of degree at
    most 2, about a third of its entries zero."""
    return PolyMatrix([[random_sparse_poly(rng, n) if rng.random() < 0.65 else Poly.zero(n)
                        for _ in range(n)] for _ in range(n)])


def times_scalar(left, right, zero):
    """The product of two matrices, either of them scalar, by dot."""
    return [[dot(row, col, zero) for col in zip(*right)] for row in left]


def test_change_coordinates_matches_the_scalar_elimination_seeded():
    # T^-1 L(Ty) T against the Scalar Gauss-Jordan solve of T X = L(Ty),
    # times T, for rational and sqrt(3) changes T; a singular T raises
    rng = random.Random(3201)
    changed = singular = irrational = nonlinear = 0
    for n in range(1, 5):
        for trial in range(24):
            operator = random_sparse_operator(rng, n)
            t, _ = random_scalar_rows(rng, n, trial % 2 == 0)
            substituted = operator.substitute_linear(t)
            solved = reference_gauss_jordan(t, substituted.entries)[1]
            if solved is None:
                with pytest.raises(SingularMatrixError):
                    change_coordinates(operator, t)
                singular += 1
                continue
            zero = Poly.zero(n)
            result = change_coordinates(operator, t)
            assert result == PolyMatrix(times_scalar(solved, t, zero)), (operator, t)
            assert times_scalar(t, result.entries, zero) \
                == times_scalar(substituted.entries, t, zero)
            changed += 1
            irrational += any(v.irr for row in t for v in row)
            nonlinear += any(p.degree() > 1 for row in operator.entries for p in row)
    assert changed >= 40 and singular >= 40 and irrational >= 10 and nonlinear >= 30, (
        changed, singular, irrational, nonlinear)


def test_change_coordinates_rejects_bad_shapes():
    operator = PolyMatrix([[p3("x1"), p3("x2*x3"), p3("0")]] * 3)
    for change in ([[1, 0, 0], [0, 1, 0]], [[1, 0], [0, 1], [1, 1]], [[1, 0], [0, 1]]):
        with pytest.raises(DimensionMismatchError):
            change_coordinates(operator, change)


def test_catalog_changes_map_onto_their_targets():
    # the nine recorded changes, four of them with sqrt(3), map each operator
    # onto its target's, and agree with the Scalar elimination
    catalog = {entry.id: entry for entry in load_catalog()}
    changes = [entry for entry in catalog.values() if entry.change is not None]
    assert [entry.id for entry in changes] == [
        "L2", "L3", "L4", "L5+", "L5-", "L6+", "L6-", "L7", "L8"]
    for entry in changes:
        t = [list(row) for row in entry.change]
        mapped = change_coordinates(entry.operator, t)
        assert mapped == catalog[entry.target].operator, entry.id
        scalar_t = [[v if type(v) is Scalar else Scalar(v) for v in row] for row in t]
        solved = reference_gauss_jordan(scalar_t, entry.operator.substitute_linear(t).entries)[1]
        assert mapped == PolyMatrix(times_scalar(solved, t, Poly.zero(3))), entry.id
    assert sum(any(type(v) is Scalar for row in entry.change for v in row)
               for entry in changes) == 4


def point_path_systems(family, n):
    """(J(p), S(p) J(p)) of a family member's sigmas at every seeded point,
    as the point path of reconstruct_operator forms them."""
    sigmas = family(n).sigmas
    j = jacobian(sigmas)
    both = PolyMatrix([(s,) + row for s, row in zip(sigmas, j.entries)])
    for values in both.at(seeded_points(n)):
        sp = [row[0] for row in values]
        jp = [row[1:] for row in values]
        sjp = [[below - s * v for v, below in zip(jp[0], next_row)]
               for s, next_row in zip(sp, jp[1:] + [[0] * n])]
        yield jp, sjp


@pytest.mark.parametrize("family", [generalized_L1, generalized_L2, generalized_blocks],
                         ids=["L1", "L2", "blocks"])
def test_certificate_jacobians_match_the_reference(family):
    # the J(p) the certificates and the point path meet: the determinant at
    # every seeded point for n <= 12 against the Scalar elimination, the
    # solve J(p) X = S(p) J(p) by its product, and for n <= 6 against the
    # Scalar Gauss-Jordan too
    singular = 0
    for n in range(3, 13):
        for jp, sjp in point_path_systems(family, n):
            det = scalar_mat_det(jp)
            assert det == reference_scalar_mat_det([[Scalar(v) for v in row] for row in jp])
            assert is_narrow(det), det
            if not det:
                singular += 1
                with pytest.raises(SingularMatrixError):
                    scalar_solve(jp, sjp)
                continue
            x = scalar_solve(jp, sjp)
            assert scalar_mat_mul(jp, x) == sjp
            assert all(is_narrow(v) for row in x for v in row)
            if n <= 6:
                expected = reference_gauss_jordan([[Scalar(v) for v in row] for row in jp],
                                                  [[Scalar(v) for v in row] for row in sjp])[1]
                assert x == expected
    assert singular >= 5


def test_scalar_readers_keep_their_types():
    # the scalar matrix helpers and PolyMatrix.at return an int for an
    # integral value, a Fraction for another rational one, and a Scalar
    # exactly when the irrational part is nonzero
    def types(values):
        return [type(v) for v in values]

    root3 = Scalar(0, 1, 3)
    a = [[Scalar(2), Scalar(1)], [Scalar(1), Scalar(3)]]
    assert scalar_mat_det(a) == 5 and type(scalar_mat_det(a)) is int
    assert types([scalar_mat_det([[Scalar(1), 2], [2, 4]]),
                  scalar_mat_det([[Fraction(1, 2)]]), scalar_mat_det([[root3]])]) == [
        int, Fraction, Scalar]
    inverse = scalar_mat_inverse(a)
    assert inverse == [[Fraction(3, 5), Fraction(-1, 5)], [Fraction(-1, 5), Fraction(2, 5)]]
    assert [types(row) for row in inverse] == [[Fraction, Fraction]] * 2
    assert [types(row) for row in scalar_mat_inverse([[root3, 1], [0, 2]])] == [
        [Scalar, Scalar], [int, Fraction]]
    assert [types(row) for row in scalar_mat_mul(a, inverse)] == [[int, int]] * 2
    m = PolyMatrix([[p3("x1 + x2"), p3("1/2*x1")],
                    [Poly.monomial(3, (0, 0, 1), root3), p3("0")]])
    values = next(m.at([[Scalar(1), 3, Fraction(2)]]))
    assert values == [[4, Fraction(1, 2)], [2 * root3, 0]]
    assert [types(row) for row in values] == [[int, Fraction], [Scalar, int]]
    # a sqrt(3) value whose irrational part cancels is rational, so narrow
    cancels = Poly.monomial(3, (1, 0, 0), root3) + Poly.monomial(3, (0, 1, 0), -root3)
    [[value]] = next(PolyMatrix([[cancels]]).at([[Scalar(2), Scalar(2), Scalar(0)]]))
    assert value == 0 and type(value) is int
