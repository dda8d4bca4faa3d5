"""End-to-end acceptance checks for the whole package.

One test per criterion, each printing a single "criterion N: PASS/FAIL"
summary line (run pytest with -s to see them; under plain -v the test
verdicts themselves carry the same information).  Budgets are wall-clock
upper bounds; every mathematical comparison is exact.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from linnij.catalog import (
    DIAG_PAIRING_CHANGE,
    generalized_L1,
    generalized_L2,
    generalized_blocks,
    load_catalog,
    verify_entry,
)
from linnij.errors import (
    DependentSigmasError,
    NotRepresentableError,
    RadicandMismatchError,
)
from linnij.exactfield import Scalar
from linnij.nijenhuis import (
    change_coordinates,
    direct_sum,
    is_differentially_nondegenerate,
    is_left_symmetric,
    lsa_to_operator,
    operator_to_lsa,
    random_structure_constants,
    torsion,
)
from linnij.polymatrix import PolyMatrix, charpoly_sigmas, companion_matrix, jacobian
from linnij.polyring import DivisibilityFailure, Poly, exact_divide
from linnij.reconstruct import (
    check_solution,
    derive_alphas,
    generate_linearity_system,
    param_sigmas,
    param_sigmas_2d,
    reconstruct_operator,
    reconstruction_pieces,
    solve_two_dim,
    two_dim_operator,
)
from linnij.textio import default_names, format_poly, parse_poly

from known_solutions import (
    ALPHA_NAMES,
    CASE11_SOLUTIONS,
    CASE12_SOLUTIONS,
    PARAM_NAMES,
    full_assignment,
)


@contextmanager
def criterion(number, summary, budget=None):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print("criterion %d: FAIL -- %s" % (number, summary))
        raise
    elapsed = time.monotonic() - start
    if budget is not None and elapsed > budget:
        print("criterion %d: FAIL -- %s (%.1fs exceeded %.0fs budget)"
              % (number, summary, elapsed, budget))
        raise AssertionError(
            "criterion %d exceeded its %.0fs budget: %.1fs"
            % (number, budget, elapsed))
    print("criterion %d: PASS -- %s (%.2fs)" % (number, summary, elapsed))


def by_id():
    return {e.id: e for e in load_catalog()}


def coerce(value):
    return value if isinstance(value, Scalar) else Scalar(value)


def substituted_sigmas(ps, params):
    """Concrete 3-variable sigmas from a full parameter assignment."""
    values = {ps.index_of(name): coerce(v) for name, v in params.items()}
    out = []
    for s in ps.sigmas:
        rendered = format_poly(s.substitute(values), list(ps.names))
        out.append(parse_poly(rendered, default_names(len(ps.sigmas))))
    return out


def test_criterion_01_catalog_invariants():
    with criterion(1, "all catalog entries: flat torsion, exact charpoly, "
                      "exact relations, independent sigmas", budget=5.0):
        entries = load_catalog()
        assert len(entries) == 23
        for e in entries:
            assert torsion(e.operator).is_zero(), e.id
            assert charpoly_sigmas(e.operator) == list(e.sigmas), e.id
            assert operator_to_lsa(e.operator) == e.relations, e.id
            assert is_differentially_nondegenerate(e.sigmas), e.id


def test_criterion_02_covariance_identity():
    with criterion(2, "J*L = S*J exactly for every catalog entry"):
        for e in load_catalog():
            jac = jacobian(list(e.sigmas))
            assert jac @ e.operator == companion_matrix(list(e.sigmas)) @ jac, e.id


def test_criterion_03_reconstruction_round_trip():
    with criterion(3, "sigmas of every entry reconstruct the entry; the "
                      "product sigma set yields the recorded failing entry"):
        for e in load_catalog():
            result = reconstruct_operator(list(e.sigmas))
            assert result.failures == [], e.id
            assert result.linear_part == e.operator, e.id

        names = default_names(2)
        product = reconstruct_operator(
            [parse_poly("x1", names), parse_poly("x1*x2", names)])
        numerators, denominator = product.pieces
        assert format_poly(denominator, names) == "x1"
        rendered = [[format_poly(p, names) for p in row]
                    for row in numerators.entries]
        assert rendered == [["-x1^2 + x1*x2", "x1^2"], ["-x2^2", "-x1*x2"]]
        assert product.linear_part is None
        [(row, col, remainder)] = product.failures
        assert (row, col) == (2, 1)
        assert format_poly(remainder, names) == "-x2^2"


def test_criterion_04_two_dim_rederivation():
    with criterion(4, "2D system collapses to 4a^2 - a = 0, a in {0, 1/4}; "
                      "the four operators land on the 2D tables", budget=1.0):
        catalog = by_id()
        # old coordinates in terms of new: x1 = -2*y1, x2 = y2
        change = [[Scalar(-2), Scalar(0)], [Scalar(0), Scalar(1)]]
        expected = {
            (Scalar(0), 1): "b4+",
            (Scalar(0), -1): "b4-",
            (Scalar(Fraction(1, 4)), 1): "c5-",
            (Scalar(Fraction(1, 4)), -1): "c5+",
        }
        for sign in (1, -1):
            system = generate_linearity_system(param_sigmas_2d(sign))
            lead, roots = solve_two_dim(system)
            target = parse_poly("4*a^2 - a", list(system.names))
            assert lead == Scalar(-1) * target
            assert roots == [Scalar(0), Scalar(Fraction(1, 4))]
            for a in roots:
                op = change_coordinates(two_dim_operator(a, sign), change)
                assert op == catalog[expected[(a, sign)]].operator, (a, sign)


def test_criterion_05_recorded_solutions():
    with criterion(5, "all 11 recorded solutions satisfy their systems; "
                      "every perturbation breaks; reconstructions land on "
                      "their catalog entries", budget=30.0):
        catalog = by_id()
        expected_breaks = {
            "s1": 1, "s2": 1, "s3": 4, "s4": 12, "s6": 12, "s7": 14,
            "s8": 26, "t1": 12, "t2": 6, "t3": 5,
        }

        def run_case(tag, solutions, derive):
            ps = param_sigmas(tag)
            system = generate_linearity_system(ps)
            for name, params, alphas, perturb, target in solutions:
                filled = {p: params.get(p, Fraction(0)) for p in PARAM_NAMES}
                if derive:
                    assert alphas is None
                    alphas = derive_alphas(ps, filled)
                result = check_solution(system, full_assignment(params, alphas))
                assert result.ok, (name, [r.entry for r in result.residuals])
                if perturb is not None:
                    bad = dict(filled)
                    bad[perturb] = coerce(bad[perturb]) + Scalar(1)
                    broken = check_solution(system, full_assignment(bad, alphas))
                    assert not broken.ok, name
                    assert len(broken.residuals) == expected_breaks[name], name
                if target is not None:
                    sigmas = substituted_sigmas(ps, filled)
                    rebuilt = reconstruct_operator(sigmas)
                    assert rebuilt.failures == [], name
                    assert rebuilt.linear_part == catalog[target].operator, name

        run_case("1.1", CASE11_SOLUTIONS, derive=False)
        run_case("1.2", CASE12_SOLUTIONS, derive=True)


def test_criterion_06_case_obstructions():
    with criterion(6, "case 3 leaves an unkillable x2^2 remainder; case 4.1 "
                      "pins 6*b_21^2 - b_21 then contradicts on b_32; case "
                      "2.1 forces b_23 = 0 and kills det J"):
        # -- case 3: division cannot succeed ---------------------------------
        ps3 = param_sigmas("3")
        names3 = list(ps3.names)

        def values_of(names, mapping):
            return {names.index(k): coerce(v) for k, v in mapping.items()}

        conditions = values_of(names3, {
            "b_21": Fraction(1, 3), "c": 0, "b_31": 0, "b_22": 0,
            "b_23": 0, "b_32": 0, "b_33": 0,
        })
        numerators, q = reconstruction_pieces(ps3.sigmas)
        q_sub = q.substitute(conditions)
        assert q_sub == parse_poly("3*x1^3*b_13", names3)
        n32 = numerators.entries[2][1].substitute(conditions)
        cofactor = parse_poly(
            "(3*b_12^2 + b_11)*x1^2 + 5*b_12*x1*x2 + x2^2 + 2*b_13*x1*x3",
            names3)
        assert n32 == parse_poly("-3*x1^2", names3) * cofactor
        division = exact_divide(n32, q_sub)
        assert isinstance(division, DivisibilityFailure)
        assert division.remainder == n32
        # the x1^2*x2^2 monomial carries the parameter-free coefficient -3:
        # no choice of b_11, b_12, b_13 removes it, while every multiple of
        # q_sub is divisible by x1^3.
        surviving = n32.group_by(range(3))[(2, 2, 0)]
        assert surviving == Poly.constant(len(names3), Scalar(-3))

        # -- case 4.1: forced vanishing, then a contradiction ----------------
        system4 = generate_linearity_system(param_sigmas("4.1"))
        names4 = list(system4.names)
        free = system4.alpha_free_equations()
        raw = {(eq.entry, eq.row, eq.col): format_poly(eq.poly, names4)
               for eq in free}
        assert raw == {
            ("P1", 2, 1): "9*b_21*b_23 - 3*b_23",
            ("P2", 2, 2): "9*b_22*b_23",
            ("P3", 2, 3): "9*b_23^2",
            ("P4", 3, 1): "-9*b_21*b_22 + 3*b_22",
            ("P5", 3, 2): "-9*b_22^2",
            ("P6", 3, 3): "-9*b_22*b_23",
        }
        # the two square equations admit only b_22 = b_23 = 0
        alpha_idx = set(system4.alpha_indices())

        def alpha_free_residues(assignment):
            values = values_of(names4, assignment)
            out = []
            for eq in system4.equations:
                residue = eq.poly.substitute(values)
                if residue.is_zero():
                    continue
                if any(e[i] for e in residue.terms for i in alpha_idx):
                    continue
                out.append(residue)
            return out

        stage1 = alpha_free_residues({"b_22": 0, "b_23": 0})
        pinned = parse_poly("-18*b_21^2 + 3*b_21", names4)
        assert pinned in stage1
        assert pinned == Scalar(-3) * parse_poly("6*b_21^2 - b_21", names4)
        stage2 = alpha_free_residues({"b_22": 0, "b_23": 0,
                                      "b_21": Fraction(1, 6)})
        wants_third = parse_poly("-3*b_32 + 1", names4)   # b_32 = 1/3
        wants_zero = parse_poly("3/2*b_32", names4)       # b_32 = 0
        assert wants_third in stage2 and wants_zero in stage2

        # -- case 2.1: b_23 is forced to vanish, collapsing the sigmas -------
        ps2 = param_sigmas("2.1")
        system2 = generate_linearity_system(ps2)
        names2 = list(system2.names)
        zeros = {"c": 0, "b_31": 0, "b_12": 0, "b_13": 0, "b_32": 0, "b_33": 0}
        forcing = next(
            eq for eq in system2.equations
            if (eq.entry, eq.row, eq.col, eq.monomial) == ("P5", 3, 2, (0, 2, 2)))
        forced = forcing.poly.substitute(values_of(names2, zeros))
        assert forced == parse_poly("-36*b_23^2", names2)
        # with b_23 = 0 the third sigma loses x3 no matter what remains free
        collapsed = [s.substitute(values_of(ps2.names, dict(zeros, b_23=0)))
                     for s in ps2.sigmas]
        with pytest.raises(DependentSigmasError) as err:
            reconstruction_pieces(collapsed)
        assert err.value.indices == [3]
        # and at a concrete point of the surviving branch the reconstruction
        # refuses outright
        instance = dict(zeros, b_23=0, a=Fraction(5, 7),
                        b_11=Fraction(65, 147), b_21=Fraction(1, 2),
                        b_22=Fraction(-2, 3))
        concrete = substituted_sigmas(ps2, instance)
        with pytest.raises(DependentSigmasError) as err:
            reconstruct_operator(concrete)
        assert err.value.indices == [3]


def test_criterion_07_linear_flatness_equivalence():
    with criterion(7, ">=500 seeded structure-constant draws: associator "
                      "symmetry iff vanishing torsion (>=20 each way)",
                   budget=60.0):
        rng = random.Random("criterion-7")
        densities = [1.0, 0.3, 0.15]
        positives = negatives = total = 0
        while total < 520 or positives < 20 or negatives < 20:
            assert total <= 3000, "sampling budget exhausted"
            n = 2 if (total % 2) else 3
            sc = random_structure_constants(
                rng, n, density=densities[total % 3])
            symmetric = is_left_symmetric(sc).ok
            flat = torsion(lsa_to_operator(sc)).is_zero()
            assert symmetric == flat
            total += 1
            if symmetric:
                positives += 1
            else:
                negatives += 1
        assert total >= 500 and positives >= 20 and negatives >= 20


def test_criterion_08_generalized_families():
    with criterion(8, "families L1/L2/blocks at n = 3..9: flat, stated "
                      "sigmas exact, independent, n = 3 equals the tables",
                   budget=120.0):
        catalog = by_id()

        def sigma_formula_L1(n):
            out = []
            for i in range(1, n):
                exps = [0] * n
                exps[i - 1] = 1
                exps[n - 1] += i - 1
                out.append(Poly.monomial(n, exps, Scalar(1)))
            exps = [0] * n
            exps[n - 1] = n
            out.append(Poly.monomial(n, exps, Scalar(Fraction(1, n))))
            return out

        def sigma_formula_L2(n):
            # sigma_i = (-1)^i (x_{i-1} + x_i) x_n^{i-1}, where the i = 1
            # term trades its missing x_0 for the trace contribution x_n and
            # the i = n term has no x_n summand.
            out = []
            for i in range(1, n + 1):
                sign = Scalar(1) if i % 2 == 0 else Scalar(-1)
                s = Poly.zero(n)
                if i == 1:
                    exps = [0] * n
                    exps[n - 1] = 1
                    s = s + Poly.monomial(n, exps, sign)
                if i >= 2:
                    exps = [0] * n
                    exps[i - 2] = 1
                    exps[n - 1] += i - 1
                    s = s + Poly.monomial(n, exps, sign)
                if i <= n - 1:
                    exps = [0] * n
                    exps[i - 1] = 1
                    exps[n - 1] += i - 1
                    s = s + Poly.monomial(n, exps, sign)
                out.append(s)
            return out

        def blocks_charpoly_product(entry, signs):
            # chi = (t - x_n) * prod_j (t^2 - 2 x_{2j+1} t
            #        + 2 x_{2j+1} x_n - x_n^2 - s_j x_{2j+2}^2)
            #        * (t - (2 x_{n-1} - x_n))   [even n only]
            n = entry.dim
            nv = n + 1  # t appended last
            t = Poly.variable(nv, n)
            x = [Poly.variable(nv, i) for i in range(n)]
            xn = x[n - 1]
            chi = t - xn
            for j, sign in enumerate(signs):
                block = (t * t - 2 * x[2 * j] * t + 2 * x[2 * j] * xn
                         - xn * xn - sign * x[2 * j + 1] * x[2 * j + 1])
                chi = chi * block
            if n % 2 == 0:
                chi = chi * (t - (2 * x[n - 2] - xn))
            stated = t ** n
            for k, s in enumerate(entry.sigmas, start=1):
                stated = stated + s.embed(nv) * t ** (n - k)
            return chi, stated

        for n in range(3, 10):
            l1 = generalized_L1(n)
            assert torsion(l1.operator).is_zero(), n
            assert list(l1.sigmas) == sigma_formula_L1(n), n
            assert charpoly_sigmas(l1.operator) == list(l1.sigmas), n
            assert is_differentially_nondegenerate(l1.sigmas), n

            l2 = generalized_L2(n)
            assert torsion(l2.operator).is_zero(), n
            assert list(l2.sigmas) == sigma_formula_L2(n), n
            assert charpoly_sigmas(l2.operator) == list(l2.sigmas), n
            assert is_differentially_nondegenerate(l2.sigmas), n

            signs = [1 if k % 2 == 0 else -1 for k in range((n - 1) // 2)]
            blocks = generalized_blocks(n, signs)
            assert torsion(blocks.operator).is_zero(), n
            chi, stated = blocks_charpoly_product(blocks, signs)
            assert chi == stated, n
            assert charpoly_sigmas(blocks.operator) == list(blocks.sigmas), n
            assert is_differentially_nondegenerate(blocks.sigmas), n

        def same_data(a, b):
            return a.operator == b.operator and a.sigmas == b.sigmas

        assert same_data(generalized_L1(3), catalog["ind3.4"])
        assert same_data(generalized_L2(3), catalog["ind3.3"])
        assert same_data(generalized_blocks(3, [-1]), catalog["ind3.1"])
        assert same_data(generalized_blocks(3, [1]), catalog["ind3.2"])


def test_criterion_09_decomposability():
    with criterion(9, "direct sums rebuild the four composite entries; "
                      "diag(x1,x2,x3) pairs onto c5+ (+) d; the recorded "
                      "change links the last table row to the same form"):
        catalog = by_id()
        for two_dim, composite in (
            ("b4+", "b4+⊕d"), ("b4-", "b4-⊕d"),
            ("c5+", "c5+⊕d"), ("c5-", "c5-⊕d"),
        ):
            total = direct_sum(catalog[two_dim].operator, catalog["d"].operator)
            assert total == catalog[composite].operator, composite

        x = [Poly.variable(3, i) for i in range(3)]
        zero = Poly.zero(3)
        diagonal = PolyMatrix((
            (x[0], zero, zero), (zero, x[1], zero), (zero, zero, x[2])))
        mapped = change_coordinates(
            diagonal, [list(row) for row in DIAG_PAIRING_CHANGE])
        assert mapped == catalog["c5+⊕d"].operator

        l8 = catalog["L8"]
        assert l8.target == "c5+⊕d"
        assert change_coordinates(
            l8.operator, [list(row) for row in l8.change]
        ) == catalog["c5+⊕d"].operator


def test_criterion_10_quadratic_normal_forms():
    with criterion(10, ">=200 seeded quadratics reduce to a canonical form "
                       "by a change fixing the first coordinate"):
        from linnij.reconstruct import normalize_sigma2

        def rebuild(n, tag, alpha, signs):
            y = [Poly.variable(n, i) for i in range(n)]
            if tag == "Degenerate":
                return y[0] * y[0] * alpha
            if tag == "Rank2":
                return y[0] * y[0] * alpha + signs[0] * y[1] * y[1]
            if tag == "Full":
                return (y[0] * y[0] * alpha + signs[0] * y[1] * y[1]
                        + signs[1] * y[2] * y[2])
            if tag == "Product":
                return y[0] * y[1]
            if tag == "ProductPlus":
                return y[0] * y[1] + signs[0] * y[2] * y[2]
            raise AssertionError("unexpected tag %r" % tag)

        rng = random.Random("criterion-10")
        accepted = 0
        attempts = 0
        seen_tags = set()
        while accepted < 200:
            attempts += 1
            assert attempts <= 2000, "sampling budget exhausted"
            n = rng.choice([2, 3])
            p = Poly.zero(n)
            for i in range(n):
                for j in range(i, n):
                    value = rng.randint(-4, 4)
                    if value:
                        p = (p + Poly.variable(n, i) * Poly.variable(n, j)
                             * Scalar(value))
            if p.is_zero():
                continue
            try:
                nf = normalize_sigma2(p)
            except (NotRepresentableError, RadicandMismatchError):
                continue
            accepted += 1
            seen_tags.add(nf.tag)
            assert nf.change[0][0] == Scalar(1)
            assert all(v == 0 for v in nf.change[0][1:])
            assert p.substitute_linear(nf.change) == nf.canonical
            assert all(s in (1, -1) for s in nf.signs)
            assert list(nf.signs) == sorted(nf.signs, reverse=True)
            assert nf.canonical == rebuild(n, nf.tag, nf.alpha, nf.signs)
        assert accepted >= 200
        assert {"Full", "Rank2"} <= seen_tags
