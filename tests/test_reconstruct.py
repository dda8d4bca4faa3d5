import hashlib
import json
import os
import random
import re
import time
from fractions import Fraction

import pytest

import linnij.reconstruct

from linnij.errors import (
    DependentSigmasError,
    DimensionMismatchError,
    FormatError,
    LinnijError,
    NotRepresentableError,
    RadicandMismatchError,
)
from linnij.catalog import (
    generalized_L1, generalized_L2, generalized_blocks, load_catalog)
from linnij.exactfield import ONE, Scalar, scalar_sqrt
from linnij.nijenhuis import direct_sum, operator_is_linear
from linnij.polyring import DivisibilityFailure, Poly, exact_divide
from linnij.polymatrix import (
    PolyMatrix, charpoly_sigmas, scalar_mat_inverse, scalar_mat_mul)
from linnij.reconstruct import (
    CASE_TAGS,
    DEGENERATE,
    FULL,
    PARAM_NAMES,
    POINT_PATH_MIN_SIGMAS,
    PRODUCT,
    PRODUCT_PLUS,
    RANK2,
    Equation,
    LinearitySystem,
    Sigma2NormalForm,
    _SIGMA2,
    check_solution,
    derive_alphas,
    generate_linearity_system,
    normalize_case_tag,
    normalize_sigma1,
    normalize_sigma2,
    param_sigmas,
    param_sigmas_2d,
    parse_assignment,
    parse_system,
    reconstruct_operator,
    reconstruction_pieces,
    solve_quadratic,
    solve_two_dim,
    two_dim_operator,
)
from linnij.textio import default_names, format_poly, parse_poly

import reference_copies
from known_solutions import (
    ALPHA_NAMES,
    CASE11_SOLUTIONS,
    CASE12_SOLUTIONS,
    full_assignment,
)


def geo_polys(texts, n):
    names = default_names(n)
    return [parse_poly(t, names) for t in texts]


# -- sigma -> operator ---------------------------------------------------------


def test_product_sigma_reconstruction_pieces():
    names = default_names(2)
    result = reconstruct_operator(geo_polys(["x1", "x1*x2"], 2))
    numerators, denominator = result.pieces
    assert format_poly(denominator, names) == "x1"
    rendered = [[format_poly(p, names) for p in row] for row in numerators.entries]
    assert rendered == [["-x1^2 + x1*x2", "x1^2"], ["-x2^2", "-x1*x2"]]
    assert result.linear_part is None
    assert len(result.failures) == 1
    r, c, remainder = result.failures[0]
    assert (r, c) == (2, 1)
    assert format_poly(remainder, names) == "-x2^2"


def test_quarter_square_sigma_reconstructs():
    sigmas = geo_polys(["x1", "1/4*x1^2 + x2^2"], 2)
    result = reconstruct_operator(sigmas)
    assert result.failures == []
    names = default_names(2)
    rendered = [
        [format_poly(p, names) for p in row] for row in result.linear_part.entries
    ]
    assert rendered == [["-1/2*x1", "2*x2"], ["-1/2*x2", "-1/2*x1"]]
    # and the operator's characteristic coefficients are the inputs again
    assert charpoly_sigmas(result.linear_part) == sigmas


def test_reconstruction_round_trips_charpoly():
    rng = random.Random(77)
    from linnij.nijenhuis import lsa_to_operator, random_structure_constants

    seen = 0
    for _ in range(40):
        op = lsa_to_operator(random_structure_constants(rng, 2))
        sigmas = charpoly_sigmas(op)
        try:
            result = reconstruct_operator(sigmas)
        except DependentSigmasError:
            continue
        seen += 1
        if result.linear_part is not None:
            assert charpoly_sigmas(result.linear_part) == sigmas
    assert seen >= 10


def test_dependent_sigmas_raise():
    sigmas = geo_polys(["x1", "x1^2"], 2)
    with pytest.raises(DependentSigmasError) as err:
        reconstruct_operator(sigmas)
    assert err.value.indices == [2]


def test_reconstruct_requires_square_data():
    with pytest.raises(DimensionMismatchError):
        reconstruct_operator(geo_polys(["x1", "x2"], 3))
    # two independent sigmas over three variables: a shape error, not a
    # dependence
    with pytest.raises(DimensionMismatchError):
        reconstruct_operator(geo_polys(["x1", "x3"], 3))
    with pytest.raises(DimensionMismatchError):
        reconstruct_operator([])


# -- the point path and its fallback --------------------------------------------


def family_members():
    """Every L1 and L2 member for n = 4..9, blocks with every sign pattern
    for n = 4..7 and with one pattern for n = 8, 9."""
    members = [build(n) for n in range(4, 10)
               for build in (generalized_L1, generalized_L2)]
    for n in range(4, 10):
        count = (n - 1) // 2
        for pattern in range(2 ** count if n <= 7 else 1):
            members.append(generalized_blocks(
                n, [-1 if pattern >> j & 1 else 1 for j in range(count)]))
    return members


def test_point_path_round_trips_the_families():
    # 32 members in about 2 s on a 2-CPU machine, with a 20 s budget; the
    # symbolic path alone takes about 11 s for blocks(6)
    start = time.monotonic()
    for entry in family_members():
        result = reconstruct_operator(entry.sigmas)
        assert result.pieces is None, entry.id  # the point path found it
        assert result.failures == [], entry.id
        assert result.linear_part == entry.operator, entry.id
    assert time.monotonic() - start < 20


def test_point_path_waits_for_four_sigmas():
    assert POINT_PATH_MIN_SIGMAS == 4
    for build in (generalized_L1, generalized_L2, generalized_blocks):
        entry = build(3)
        result = reconstruct_operator(entry.sigmas)
        assert result.pieces is not None, entry.id
        assert result.linear_part == entry.operator, entry.id


def test_point_path_reconstructs_a_sqrt3_direct_sum():
    # L7 carries sqrt(3): its values at the points are Scalars with an
    # irrational part among int and Fraction ones, and the elimination
    # meets both kinds
    catalog = {e.id: e for e in load_catalog()}
    operator = direct_sum(catalog["L7"].operator, catalog["b4+"].operator)
    sigmas = charpoly_sigmas(operator)
    assert len(sigmas) == 5
    assert any(s.radicand() == 3 for s in sigmas)
    result = reconstruct_operator(sigmas)
    assert result.pieces is None  # the point path found it
    assert result.failures == []
    assert result.linear_part == operator


def diagonal_sigmas():
    """The sigmas of diag(x1^2, x2, x3, x4): polynomial, not linear."""
    x = [Poly.variable(4, i) for i in range(4)]
    zero = Poly.zero(4)
    diagonal = [x[0] * x[0]] + x[1:]
    return charpoly_sigmas(PolyMatrix(
        [[diagonal[r] if r == c else zero for c in range(4)] for r in range(4)]))


def reference_result(sigmas):
    """reconstruct_operator as the symbolic path alone computes it."""
    numerators, q = reconstruction_pieces(sigmas)
    quotients = [[exact_divide(p, q) for p in row] for row in numerators.entries]
    failures = [(r + 1, c + 1, quo.remainder)
                for r, row in enumerate(quotients)
                for c, quo in enumerate(row)
                if isinstance(quo, DivisibilityFailure)]
    linear_part = None if failures else PolyMatrix(quotients)
    return numerators, q, linear_part, failures


@pytest.mark.parametrize("sigmas, linear", [
    # sigma_3 = x3 is not homogeneous of degree 3: no linear operator
    (geo_polys(["x1", "x1*x2", "x3", "x4"], 4), None),
    (diagonal_sigmas(), False),
    # homogeneous: the points give a candidate, and the identity fails
    (geo_polys(["x1", "x1*x2", "x3^3", "x4^4"], 4), None),
], ids=["not-polynomial", "not-linear", "identity-fails"])
def test_point_path_falls_back_to_the_symbolic_path(sigmas, linear):
    result = reconstruct_operator(sigmas)
    numerators, q, linear_part, failures = reference_result(sigmas)
    assert result.pieces == (numerators, q)
    assert result.failures == failures
    assert result.linear_part == linear_part
    if linear is None:
        assert failures
    else:
        assert operator_is_linear(linear_part) is linear


@pytest.mark.parametrize("texts", [
    ["x1", "x2", "x1 + x2", "x4"],
    ["x1", "x1^2 + x2^2", "x3^3 + x1*x2*x3", "x1^4"],
], ids=["linear", "homogeneous"])
def test_point_path_keeps_the_dependence_diagnosis(texts):
    sigmas = geo_polys(texts, 4)
    with pytest.raises(DependentSigmasError) as expected:
        reconstruction_pieces(sigmas)
    with pytest.raises(DependentSigmasError) as err:
        reconstruct_operator(sigmas)
    assert err.value.indices == expected.value.indices
    assert str(err.value) == str(expected.value)


@pytest.mark.parametrize("texts", [
    # homogeneous, so the point path runs and fails on the radicands first
    ["sqrt(2)*x1", "sqrt(3)*x1*x2", "x3^3", "x4^4"],
    ["x1 + sqrt(2)", "x2^2 + sqrt(3)*x1", "x3", "x4"],
], ids=["homogeneous", "inhomogeneous"])
def test_point_path_keeps_the_radicand_message(texts):
    sigmas = geo_polys(texts, 4)
    with pytest.raises(RadicandMismatchError) as expected:
        reconstruction_pieces(sigmas)
    with pytest.raises(RadicandMismatchError) as err:
        reconstruct_operator(sigmas)
    assert str(err.value) == str(expected.value)


def test_point_path_lets_other_errors_through(monkeypatch):
    # only mixed radicands send the point path to the symbolic one; any
    # other error is a fault and must surface
    def planted(a, b):
        raise LinnijError("internal: planted")

    monkeypatch.setattr(linnij.reconstruct, "scalar_solve", planted)
    with pytest.raises(LinnijError, match="internal: planted"):
        reconstruct_operator(generalized_blocks(5, [1, 1]).sigmas)


# -- parametric systems --------------------------------------------------------


def test_case_tags_normalize():
    assert normalize_case_tag("2") == "2.1"
    assert normalize_case_tag("4.1") == "4.1"
    with pytest.raises(FormatError):
        normalize_case_tag("5")


def test_param_sigmas_shapes():
    renders = {}
    for tag in ("1.1", "1.2", "1.3", "2.1", "2.2", "3", "4.1", "4.2"):
        ps = param_sigmas(tag)
        assert ps.case == tag
        assert ps.names == ("x1", "x2", "x3") + PARAM_NAMES
        assert ps.sigmas[0] == Poly.variable(len(ps.names), 0)
        renders[tag] = format_poly(ps.sigmas[1], list(ps.names))
    assert renders["1.1"] == "x1^2*a + x2*x3"
    assert renders["1.2"] == "x1^2*a - x2^2 - x3^2"
    assert renders["1.3"] == "x1^2*a + x2^2 + x3^2"
    assert renders["2.1"] == "x1^2*a + x2^2"
    assert renders["2.2"] == "x1^2*a - x2^2"
    assert renders["3"] == "x1*x2"
    assert renders["4.1"] == "x1*x2 + x3^2"
    assert renders["4.2"] == "x1*x2 - x3^2"


def test_param_sigma3_is_the_general_cubic():
    ps = param_sigmas("3")
    s3 = ps.sigmas[2]
    # coefficient of x1^2 x2 is 3 b_12; of x1 x2 x3 is 6 c
    nv = len(ps.names)

    grouped = s3.group_by(range(3))

    def coeff_of(e1, e2, e3):
        return grouped.get((e1, e2, e3), Poly.zero(nv))

    b12 = Poly.variable(nv, ps.index_of("b_12"))
    c = Poly.variable(nv, ps.index_of("c"))
    assert coeff_of(2, 1, 0) == 3 * b12
    assert coeff_of(1, 1, 1) == 6 * c
    assert s3.is_homogeneous_in(3, range(3))


def test_linearity_system_sizes():
    for tag in ("1.1", "1.2", "1.3", "2.1", "2.2", "3", "4.1", "4.2"):
        ps = param_sigmas(tag)
        system = generate_linearity_system(ps)
        assert system.names == ps.names + ALPHA_NAMES, tag
        assert len(system) == 90, tag
        free = system.alpha_free_equations()
        expected = 30 if tag in ("2.1", "2.2", "3") else 6
        assert len(free) == expected, tag


def test_two_dim_system_and_solution():
    for sign in (1, -1):
        ps = param_sigmas_2d(sign)
        assert ps.names == ("x1", "x2", "a")
        system = generate_linearity_system(ps)
        assert system.names == ps.names + (
            "alpha11", "alpha12", "alpha21", "alpha22")
        assert len(system) == 5
        lead, roots = solve_two_dim(system)
        assert format_poly(lead, list(system.names)) == "-4*a^2 + a"
        assert roots == [Scalar(0), Scalar(Fraction(1, 4))]


def test_solve_two_dim_needs_proportional_alpha_free_equations():
    system = generate_linearity_system(param_sigmas_2d(1))
    free = system.alpha_free_equations()
    assert len(free) == 1
    lead = free[0]
    with_alphas = [eq for eq in system.equations if eq is not lead]
    a = Poly.variable(len(system.names), system.names.index("a"))

    def variant(*polys):
        extra = [Equation(lead.entry, lead.row, lead.col, lead.monomial, p)
                 for p in polys]
        return LinearitySystem(system.case, system.names, system.ngeo,
                               with_alphas + extra, None)

    with pytest.raises(LinnijError, match="system has no alpha-free equation"):
        solve_two_dim(variant())
    with pytest.raises(LinnijError, match="system has no alpha-free equation"):
        solve_two_dim(variant(Poly.zero(len(system.names))))
    first, roots = solve_two_dim(variant(lead.poly, lead.poly.scale(Scalar(-3))))
    assert first == lead.poly
    assert roots == [Scalar(0), Scalar(Fraction(1, 4))]
    with pytest.raises(LinnijError, match="not proportional"):
        solve_two_dim(variant(lead.poly, lead.poly + a))


def test_two_dim_operator_matches_its_sigmas():
    for sign in (1, -1):
        for a in (Scalar(0), Scalar(Fraction(1, 4))):
            op = two_dim_operator(a, sign)
            x1 = Poly.variable(2, 0)
            x2 = Poly.variable(2, 1)
            assert charpoly_sigmas(op) == [
                x1,
                a * x1 * x1 + sign * x2 * x2,
            ]


def test_two_dim_operator_rejects_nonsolution():
    with pytest.raises(LinnijError):
        two_dim_operator(Fraction(1, 3), 1)


#: what an exact value may be; a float never is
EXACT_TYPES = (int, Fraction, Scalar)


def test_solve_quadratic():
    assert solve_quadratic(Scalar(1), Scalar(-3), Scalar(2)) == [
        Scalar(1),
        Scalar(2),
    ]
    assert solve_quadratic(Scalar(0), Scalar(2), Scalar(-1)) == [
        Scalar(Fraction(1, 2))
    ]
    assert solve_quadratic(Scalar(1), Scalar(-2), Scalar(1)) == [Scalar(1)]
    assert solve_quadratic(Scalar(1), Scalar(0), Scalar(-3)) == [
        Scalar(0, -1, 3),
        Scalar(0, 1, 3),
    ]
    with pytest.raises(LinnijError):
        solve_quadratic(Scalar(0), Scalar(0), Scalar(1))
    # plain int coefficients give the same roots, each exact: an int / int
    # anywhere on the way would leave a float
    for c2, c1, c0 in ((1, -3, 2), (0, 2, -1), (1, -2, 1), (1, 0, -3), (2, 3, 1),
                       (4, 0, -1), (3, 1, 0), (0, 3, 1), (2, 0, -1)):
        roots = solve_quadratic(c2, c1, c0)
        assert roots == solve_quadratic(Scalar(c2), Scalar(c1), Scalar(c0))
        assert all(type(t) in EXACT_TYPES for t in roots), (c2, c1, c0, roots)
        assert all(c2 * t * t + c1 * t + c0 == 0 for t in roots)


# -- listing round trip ---------------------------------------------------------

LISTING_SHA256 = {
    "1.1": "b878dec436305fa5b61a6e6aed96a8d10f6bf27aecaf75db9c412b66555ed4fb",
    "1.2": "c034765fca3a197285f7ae6b95d1a7432b1db95b753f5b9e89c547f095e5f08b",
    "1.3": "69a4ff6397f0694495e73e4a8b3db0b35b6b3bc7d5140c0e33d161f62212e924",
    "2.1": "3a0c5285eaab76b6ecc60b0b07866b1719ece20762a8d2c243064805ceb64d8d",
    "2.2": "06c4914b2756bc120a3faef11f1a6473c243eb7575bf3b442e1a8a19edd90f4a",
    "3": "6ddcefbf02a177e38f4c6c15030b89141f2ea06cb32828b758141e519637feaa",
    "4.1": "b3d9586461ce2e7950ae460e852cefd387faaa3a6ae90c4771af5e95a985a3ed",
    "4.2": "15c2a53a8cce7c43f9cb6c5e1473dfb9ae340ae029a3f1e3108c943b24ef7e02",
    "2d+": "661638d48495aebf050a8971d6b2e01d167c2126e35ca23ffe16459d8caf55b5",
    "2d-": "0a2953d47b22e417825475febafdcbf149ef255d2d6a3931307c5a37efa6dc74",
}


def test_listings_are_pinned():
    sets = [param_sigmas(tag) for tag in CASE_TAGS if tag != "2"]
    sets += [param_sigmas_2d(1), param_sigmas_2d(-1)]
    digests = {
        ps.case: hashlib.sha256(
            generate_linearity_system(ps).to_text().encode("utf-8")).hexdigest()
        for ps in sets
    }
    assert digests == LISTING_SHA256
    # the benchmark checks gen-system output against the same digests
    fixture = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                           "fixture.json")
    with open(fixture, encoding="utf-8") as handle:
        listings = json.load(handle)["listings"]
    assert {tag: v["sha256"] for tag, v in listings.items()} == {
        tag: v for tag, v in LISTING_SHA256.items() if not tag.startswith("2d")}


def test_system_listing_round_trip():
    # all ten listings: the eight cases and both two-dimensional systems
    sets = [param_sigmas(tag) for tag in CASE_TAGS if tag != "2"]
    sets += [param_sigmas_2d(1), param_sigmas_2d(-1)]
    for ps in sets:
        system = generate_linearity_system(ps)
        text = system.to_text()
        assert text.startswith("# linearity system\n# case: %s\n" % ps.case)
        assert text.endswith("\n")
        back = parse_system(text)
        assert back.case == system.case
        assert back.names == system.names
        assert back.ngeo == system.ngeo
        assert back.equations == system.equations
        # parsed systems do not carry the generation context
        assert back.sigmas is None


def test_parse_system_rejects_garbage():
    with pytest.raises(FormatError):
        parse_system("")
    with pytest.raises(FormatError):
        parse_system("P1 (2,1) x1 :: a = 0\n")  # header missing
    good = generate_linearity_system(param_sigmas_2d(1)).to_text()
    with pytest.raises(FormatError):
        parse_system(good.replace("::", "||"))


def test_parse_system_errors_name_their_line():
    text = generate_linearity_system(param_sigmas("1.1")).to_text()
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[first].startswith("P1 (2,1) x1^4 :: ")

    def error(old, new, at=first):
        edited = lines[:at] + [lines[at].replace(old, new, 1)] + lines[at + 1:]
        with pytest.raises(FormatError) as info:
            parse_system("".join(edited))
        return str(info.value)

    lineno = first + 1
    # an equation must end in "= 0"
    assert error(" = 0", "") == "line %d: equation does not end in '= 0'" % lineno
    assert error(" = 0", " = 5") == "line %d: equation does not end in '= 0'" % lineno
    # the message after the prefix is unchanged
    assert error("x1^4", "2*x1") == "line %d: not a monomial: '2*x1'" % lineno
    assert error(" = 0", " + x2 = 0").startswith(
        "line %d: equation names a geometric variable: " % lineno)
    assert error("(2,1)", "(a,1)") == "line %d: position is not a number: 'a'" % lineno
    assert error(":: ", ":: ? ").startswith(
        "line %d: unexpected character '?' in '? -12*a^2" % lineno)
    # header lines and the last equation carry their numbers too
    count_line = lines.index("# equations: 90\n")
    assert error("90", "ninety", at=count_line) == (
        "line %d: equation count is not a number: 'ninety'" % (count_line + 1))
    geometric = lines.index("# geometric: x1 x2 x3\n")
    assert error("x3", "x2", at=geometric) == (
        "line %d: duplicate variable names" % (first + 1))
    assert error(" = 0", " = 0 = 0", at=len(lines) - 1) == (
        "line %d: unexpected character '=' in %r"
        % (len(lines), lines[-1].partition(":: ")[2].strip()))


def all_listings():
    """The ten listings: the eight cases and both two-dimensional systems."""
    sets = [param_sigmas(tag) for tag in CASE_TAGS if tag != "2"]
    sets += [param_sigmas_2d(1), param_sigmas_2d(-1)]
    return [generate_linearity_system(ps).to_text() for ps in sets]


def test_headers_appear_once_with_a_value_before_the_first_equation():
    text = generate_linearity_system(param_sigmas("3")).to_text()
    nlines = text.count("\n")
    faults = [
        # (edited listing, the error, what the line reader read before)
        (text + "# geometric: x1\n",
         "line %d: '# geometric:' header after the first equation" % (nlines + 1),
         lambda old: old.ngeo == 1),
        (text + "# case: 4.2\n",
         "line %d: '# case:' header after the first equation" % (nlines + 1),
         lambda old: old.case == "4.2"),
        (text.replace("# equations: 90\n", "# equations: 90\n# equations: 89\n"),
         "line 6: second '# equations:' header",
         lambda old: "declares 89 equations but lists 90" in old),
        (text.replace("# case: 3\n", "# case:\n"),
         "line 2: '# case:' header has no value",
         lambda old: old.case == ""),
    ]
    for edited, message, before in faults:
        with pytest.raises(FormatError) as info:
            parse_system(edited)
        assert str(info.value) == message
        try:
            old = reference_copies.parse_system(edited)
        except FormatError as exc:
            old = str(exc)
        assert before(old)
    # a header after the first equation is refused wherever it stands, in
    # either reader; other comments are skipped there
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("P"))
    for at in (first + 1, len(lines)):
        edited = "".join(lines[:at] + ["# symbols: a\n"] + lines[at:])
        with pytest.raises(FormatError, match="^line %d: '# symbols:' header after "
                                              "the first equation$" % (at + 1)):
            parse_system(edited)
        edited = "".join(lines[:at] + ["# a comment\n"] + lines[at:])
        assert parse_system(edited).equations == parse_system(text).equations


def test_the_fast_path_reads_every_listing(monkeypatch):
    calls = []
    read_lines = linnij.reconstruct._BodyReader.read_lines
    monkeypatch.setattr(linnij.reconstruct._BodyReader, "read_lines",
                        lambda self, *args: calls.append(1) or read_lines(self, *args))
    for text in all_listings():
        assert listing_outcome(parse_system, text) == listing_outcome(
            reference_copies.parse_system, text)
    assert calls == []
    # a head is split as the line reader splits it
    text = all_listings()[0]
    edited = text.replace(" :: ", "  :: ")
    assert listing_outcome(parse_system, edited) == listing_outcome(parse_system, text)
    assert calls == []
    # a body that is not as to_text writes it goes to the line reader, and
    # so does a head that splits into other fields, even where theirs join
    # into a known entry and position
    at = text.rindex("P4 (3,1) ")
    moved = text[:at] + "P4( 3,1) " + text[at + len("P4 (3,1) "):]
    for edited in (text.replace("\n", "\r\n"), text.replace(" + ", "  + "),
                   text.replace(" = 0\n", " =0\n"), text[:-1], moved):
        assert listing_outcome(parse_system, edited) == listing_outcome(
            reference_copies.parse_system, edited)
    assert len(calls) == 5


def shape(p):
    return p.nvars, p.width, [(key, type(c), c) for key, c in p.packed.items()]


def listing_outcome(parse, text):
    """The parsed system, each polynomial in the order and types of its
    terms, or the error message."""
    try:
        system = parse(text)
    except FormatError as exc:
        return str(exc)
    return (system.case, system.names, system.ngeo, system.sigmas,
            [(eq.entry, eq.row, eq.col, eq.monomial, shape(eq.poly))
             for eq in system.equations])


HEADER_RULE = re.compile(r"line \d+: (second '# [a-z]+:' header|'# [a-z]+:' header "
                         r"(has no value|after the first equation))$")


def mutate_listing(rng, text, kind):
    """One edit of a listing; ``kind`` names it."""
    lines = text.splitlines(keepends=True)
    body = [i for i, line in enumerate(lines) if line.startswith("P")]
    at = rng.choice(body)
    line = lines[at]
    head, _, sum_text = line[:-len(" = 0\n")].partition(" :: ")
    symbols = lines[3].split()[2:]

    def put(new_line):
        return "".join(lines[:at] + [new_line] + lines[at + 1:])

    def replace_in_sum(old, new):
        return put("%s :: %s = 0\n" % (head, re.sub(old, new, sum_text, count=1)))

    if kind == "doubled space":
        spaces = [i for i, c in enumerate(line) if c == " "]
        i = rng.choice(spaces)
        return put(line[:i] + " " + line[i:])
    if kind == "head whitespace":
        # a space of the head taken out or not, and a whitespace character,
        # a line break to splitlines or not, put in
        if rng.random() < 0.5:
            i = rng.choice([i for i, c in enumerate(head) if c == " "])
            head = head[:i] + head[i + 1:]
        i = rng.randrange(len(head) + 1)
        c = rng.choice([" ", "\t", "\xa0", "\x0b", "\x1c", "\u2028"])
        return put("%s%s%s :: %s = 0\n" % (head[:i], c, head[i:], sum_text))
    if kind == "trailing space":
        return put(line[:-1] + rng.choice([" ", "\t"]) + "\n")
    if kind == "=0":
        return put(line.replace(" = 0\n", rng.choice(["=0\n", " =0\n", "= 0\n"])))
    if kind == "CRLF":
        return text.replace("\n", "\r\n")
    if kind == "bracketed sum":
        return put("%s :: (%s) = 0\n" % (head, sum_text))
    if kind == "wrong P":
        entry, rest = head.split(" ", 1)
        return put("P%d %s :: %s = 0\n" % (int(entry[1:]) + rng.choice([-1, 1, 4]),
                                           rest, sum_text))
    if kind == "geometric variable":
        geo = rng.choice(lines[2].split()[2:])
        return put("%s :: %s %s = 0\n" % (head, sum_text, rng.choice(
            ["+ %s" % geo, "- 2*%s*%s" % (geo, symbols[0]), "+ %s - %s" % (geo, geo)])))
    if kind == "missing = 0":
        return put("%s :: %s\n" % (head, sum_text))
    if kind == "truncated":
        if rng.random() < 0.5:
            return "".join(lines[:rng.choice(body)])
        return text[:rng.randrange(len(text))]
    if kind == "padded":
        return "".join(lines[:at + 1] + [rng.choice([line, "\n", "# note\n"])]
                       + lines[at + 1:])
    if kind == "non-ASCII digit":
        digits = [i for i, c in enumerate(text) if c.isdigit()]
        i = rng.choice(digits)
        return text[:i] + rng.choice(["٣", "３", "³"]) + text[i + 1:]
    if kind == "degree past 255":
        return put("%s :: %s + %s^%d = 0\n" % (head, sum_text, rng.choice(symbols),
                                              rng.choice([255, 256, 300])))
    if kind == "5000-digit literal":
        return put("%s :: %s - %s*%s = 0\n" % (head, sum_text, "7" * 5000,
                                              rng.choice(symbols)))
    if kind == "unknown name":
        name = rng.choice(symbols)
        return replace_in_sum(r"\b%s\b" % name, "zz_%s" % name) if re.search(
            r"\b%s\b" % name, sum_text) else put("%s :: %s + q = 0\n" % (head, sum_text))
    if kind == "symbol named sqrt":
        name = rng.choice(symbols)
        return re.sub(r"\b%s\b" % name, "sqrt", text)
    if kind == "one character":
        i = rng.randrange(len(text) + 1)
        c = rng.choice("+-*/^() 0123456789abcx_P,:#=\n\r٣")
        edit = rng.randrange(3)
        if edit == 0:
            return text[:i] + c + text[i + 1:]
        if edit == 1:
            return text[:i] + c + text[i:]
        return text[:i] + text[i + 1:]
    assert kind == "header", kind
    header = rng.choice(lines[1:5])
    choice = rng.randrange(3)
    if choice == 0:
        return "".join(lines[:at + 1] + [header] + lines[at + 1:])
    if choice == 1:
        return text.replace(header, header + header, 1)
    return text.replace(header, header.split(":")[0] + ":\n", 1)


LISTING_MUTATIONS = [
    "doubled space", "head whitespace", "trailing space", "=0", "CRLF", "bracketed sum", "wrong P",
    "geometric variable", "missing = 0", "truncated", "padded", "non-ASCII digit",
    "degree past 255", "5000-digit literal", "unknown name", "symbol named sqrt",
    "one character", "header",
]


def test_parse_system_matches_the_line_reader_on_mutated_listings_seeded(monkeypatch):
    # the same system or the same message and line number as the line
    # reader of before, except where the header rule refuses a listing
    reads = {"fast path": 0, "line reader": 0}
    read = linnij.reconstruct._BodyReader.read

    def counted(self, *args):
        equations = read(self, *args)
        reads["fast path" if equations is not None else "line reader"] += 1
        return equations

    monkeypatch.setattr(linnij.reconstruct._BodyReader, "read", counted)
    rng = random.Random(3502)
    outcomes = {"equal": 0, "errors": 0, "header rule": 0}
    for text in all_listings():
        for kind in LISTING_MUTATIONS:
            for _ in range(6 if kind in ("one character", "head whitespace") else 2):
                mutated = mutate_listing(rng, text, kind)
                got = listing_outcome(parse_system, mutated)
                expected = listing_outcome(reference_copies.parse_system, mutated)
                if isinstance(got, str) and HEADER_RULE.match(got):
                    outcomes["header rule"] += 1
                    continue
                assert kind != "header", mutated
                assert got == expected, (kind, mutated)
                outcomes["errors" if isinstance(got, str) else "equal"] += 1
    assert all(count >= 20 for count in outcomes.values()), outcomes
    assert all(count >= 20 for count in reads.values()), reads


# -- solution checking -----------------------------------------------------------


def test_known_solutions_satisfy_their_system():
    # one representative per case here; the full sweep is an acceptance check
    system = generate_linearity_system(param_sigmas("1.1"))
    name, params, alphas, _, _ = CASE11_SOLUTIONS[1]
    assert name == "s2"
    result = check_solution(system, full_assignment(params, alphas))
    assert result.ok and result.residuals == []


def test_perturbed_solution_fails():
    system = generate_linearity_system(param_sigmas("1.1"))
    name, params, alphas, perturb, _ = CASE11_SOLUTIONS[1]
    bad = dict(params)
    bad[perturb] = bad.get(perturb, Fraction(0)) + 1
    result = check_solution(system, full_assignment(bad, alphas))
    assert not result.ok
    assert result.residuals
    witness = result.residuals[0]
    assert witness.entry.startswith("P")
    assert witness.value != 0


def test_check_solution_matches_substitution():
    # the power-table evaluation against Poly.substitute, equation by equation
    rng = random.Random(47)
    root3 = Scalar(0, 1, 3)
    for ps in (param_sigmas("1.1"), param_sigmas("4.2"), param_sigmas_2d(-1)):
        system = generate_linearity_system(ps)
        symbols = system.names[system.ngeo:]
        for _ in range(4):
            assignment = {
                name: rng.choice([Scalar(0), Scalar(0), Scalar(rng.randint(-3, 3)),
                                  Scalar(Fraction(rng.randint(-5, 5), 7)),
                                  root3 * rng.randint(1, 2)])
                for name in symbols
            }
            values = {system.names.index(k): v for k, v in assignment.items()}
            expected = []
            for eq in system.equations:
                value = eq.poly.substitute(values).constant_value()
                if value != 0:
                    expected.append((eq.entry, eq.row, eq.col, eq.monomial, value))
            result = check_solution(system, assignment)
            assert [(r.entry, r.row, r.col, r.monomial, r.value)
                    for r in result.residuals] == expected
            assert result.ok == (not expected)


def test_geometric_variable_in_an_equation_is_rejected():
    system = generate_linearity_system(param_sigmas_2d(1))
    text = system.to_text()
    assert text.count(" = 0\n") == len(system.equations)
    with pytest.raises(FormatError, match="equation names a geometric variable"):
        parse_system(text.replace(" = 0\n", " + x2 = 0\n", 1))
    # a system built by hand reaches check_solution unparsed
    eq = system.equations[0]
    bad_eq = Equation(eq.entry, eq.row, eq.col, eq.monomial,
                      eq.poly + Poly.variable(len(system.names), 0))
    hand_built = LinearitySystem(system.case, system.names, system.ngeo,
                                 [bad_eq] + system.equations[1:], None)
    assignment = {name: 0 for name in system.names[system.ngeo:]}
    with pytest.raises(FormatError, match="geometric variables: x1$"):
        check_solution(hand_built, assignment)


def test_check_solution_rejects_bad_names():
    system = generate_linearity_system(param_sigmas_2d(1))
    with pytest.raises(FormatError):
        check_solution(system, {"nope": 1})
    with pytest.raises(FormatError):
        check_solution(system, {"x1": 1})
    with pytest.raises(FormatError):
        check_solution(system, {"a": 1})  # alphas missing


def test_parse_assignment():
    text = "# comment\n a = 1/4 \n b_21 = -1/6 # inline\n\n c = 1*sqrt(3)\n"
    values = parse_assignment(text)
    assert values == {
        "a": Scalar(Fraction(1, 4)),
        "b_21": Scalar(Fraction(-1, 6)),
        "c": Scalar(0, 1, 3),
    }
    with pytest.raises(FormatError):
        parse_assignment("a 1/4\n")
    with pytest.raises(FormatError):
        parse_assignment("a = 1\na = 2\n")


def test_derive_alphas_reproduces_listed_solution():
    ps = param_sigmas("1.1")
    name, params, alphas, _, _ = CASE11_SOLUTIONS[3]
    assert name == "s4"
    filled = {p: params.get(p, Fraction(0)) for p in PARAM_NAMES}
    derived = derive_alphas(ps, filled)
    expected = {a: Scalar(alphas.get(a, Fraction(0))) for a in ALPHA_NAMES}
    assert derived == expected


def test_derive_alphas_rejects_nonsolution():
    ps = param_sigmas("1.1")
    filled = {p: Fraction(0) for p in PARAM_NAMES}
    filled["b_12"] = Fraction(1)
    with pytest.raises(LinnijError):
        derive_alphas(ps, filled)


def test_derive_alphas_rejects_alpha_names():
    # a solution's parameters plus one alpha: the alphas are derived, never
    # assigned
    ps = param_sigmas("1.1")
    _, params, _, _, _ = CASE11_SOLUTIONS[3]
    filled = {p: params.get(p, Fraction(0)) for p in PARAM_NAMES}
    filled["alpha11"] = Fraction(1)
    with pytest.raises(FormatError):
        derive_alphas(ps, filled)


def test_derive_alphas_rejects_a_partial_assignment():
    # b_22 is the free parameter of s1 and b_11 one of its zero parameters;
    # leaving either out is a missing value, not a failed solution
    ps = param_sigmas("1.1")
    _, params, _, _, _ = CASE11_SOLUTIONS[0]
    for left_out in ("b_22", "b_11"):
        filled = {p: params.get(p, Fraction(0)) for p in PARAM_NAMES
                  if p != left_out}
        with pytest.raises(FormatError) as err:
            derive_alphas(ps, filled)
        assert str(err.value) == "assignment is missing values for: " + left_out


def test_derive_alphas_needs_only_the_parameters_that_occur():
    # case 3 has sigma_2 = x1*x2, so the parameter a occurs in no sigma and
    # the assignment without it reaches the division
    ps = param_sigmas("3")
    filled = {p: Fraction(0) for p in PARAM_NAMES if p != "a"}
    filled["b_33"] = Fraction(1)
    filled["c"] = Fraction(1)
    with pytest.raises(LinnijError, match="is not linear under this assignment"):
        derive_alphas(ps, filled)


def test_derive_alphas_detects_collapsed_sigmas():
    ps = param_sigmas("1.1")
    filled = {p: Fraction(0) for p in PARAM_NAMES}
    # a = 0 and no cubic terms leaves sigma_3 = 0: dependent
    with pytest.raises(DependentSigmasError) as err:
        derive_alphas(ps, filled)
    assert err.value.indices == [3]


# -- normal forms ----------------------------------------------------------------


def test_normalize_sigma1_seeded():
    rng = random.Random(55)
    for n in (2, 3):
        for _ in range(60):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
            if not any(coeffs):
                continue
            p = Poly.zero(n)
            for i, cv in enumerate(coeffs):
                p = p + Poly.variable(n, i) * Scalar(cv)
            normal, change = normalize_sigma1(p)
            assert normal == Poly.variable(n, 0)
            assert p.substitute_linear(change) == normal


def test_normalize_sigma1_rejects_bad_input():
    with pytest.raises(DimensionMismatchError):
        normalize_sigma1(Poly.zero(2))
    with pytest.raises(DimensionMismatchError):
        normalize_sigma1(Poly.variable(2, 0) ** 2)


def hand_quadratic(text, n):
    return parse_poly(text, default_names(n))


def test_normalize_sigma2_examples():
    full = normalize_sigma2(hand_quadratic("x1^2 + x2^2 + x3^2", 3))
    assert full.tag == "Full"
    assert full.alpha == Scalar(1)
    assert full.signs == (1, 1)

    rank2 = normalize_sigma2(hand_quadratic("5*x1^2 - x3^2", 3))
    assert rank2.tag == "Rank2"
    assert rank2.alpha == Scalar(5)
    assert rank2.signs == (-1,)

    product = normalize_sigma2(hand_quadratic("x1*x2", 3))
    assert product.tag == "Product"
    assert product.alpha is None

    plus = normalize_sigma2(hand_quadratic("x1*x2 + x3^2", 3))
    assert plus.tag == "ProductPlus"
    assert plus.signs == (1,)

    degenerate = normalize_sigma2(hand_quadratic("7*x1^2", 3))
    assert degenerate.tag == "Degenerate"
    assert degenerate.alpha == Scalar(7)

    cross_only = normalize_sigma2(hand_quadratic("x2*x3", 3))
    assert cross_only.tag in ("Rank2", "Full")
    assert -1 in cross_only.signs


@pytest.mark.parametrize("a", ["2", "-1/3", "0"])
def test_case_tags_are_sigma2_normal_forms(a):
    # the search's sigma_2 cases are the outputs of normalize_sigma2, with
    # alpha = a where the form has a square head
    expected = {
        "1.1": (FULL, (1, -1)),
        "1.2": (FULL, (-1, -1)),
        "1.3": (FULL, (1, 1)),
        "2.1": (RANK2, (1,)),
        "2.2": (RANK2, (-1,)),
        "3": (PRODUCT, ()),
        "4.1": (PRODUCT_PLUS, (1,)),
        "4.2": (PRODUCT_PLUS, (-1,)),
    }
    assert expected.keys() == _SIGMA2.keys()
    for tag, text in _SIGMA2.items():
        s2 = hand_quadratic(text.replace("a*", "(%s)*" % a), 3)
        nf = normalize_sigma2(s2)
        assert (nf.tag, nf.signs) == expected[tag], tag
        if nf.tag in (FULL, RANK2):
            assert nf.alpha == Scalar(Fraction(a)), tag
        else:
            assert nf.alpha is None, tag
        if tag != "1.1":  # x2*x3 is split into a difference of squares
            assert nf.canonical == s2, tag


def test_normalize_sigma2_change_contract():
    rng = random.Random(91)
    count = 0
    for _ in range(120):
        n = rng.choice([2, 3])
        p = Poly.zero(n)
        for i in range(n):
            for j in range(i, n):
                cv = rng.randint(-3, 3)
                if cv:
                    p = p + Poly.variable(n, i) * Poly.variable(n, j) * Scalar(cv)
        if p.is_zero():
            continue
        try:
            nf = normalize_sigma2(p)
        except (NotRepresentableError, RadicandMismatchError):
            continue
        count += 1
        assert nf.change[0][0] == Scalar(1)
        assert all(v == 0 for v in nf.change[0][1:])
        assert p.substitute_linear(nf.change) == nf.canonical
    assert count >= 40


def test_normalize_sigma2_radical_failures():
    with pytest.raises(NotRepresentableError):
        normalize_sigma2(hand_quadratic("1*sqrt(3)*x2^2 + x1^2", 2))
    with pytest.raises(RadicandMismatchError):
        normalize_sigma2(
            hand_quadratic("2*x2^2 + 1*sqrt(3)*x1*x2", 2)
        )
    with pytest.raises(DimensionMismatchError):
        normalize_sigma2(hand_quadratic("x1^3", 2))
    with pytest.raises(DimensionMismatchError):
        normalize_sigma2(Poly.variable(4, 0) * Poly.variable(4, 1))


# -- the elimination order normalize_sigma2 replaced, kept as its reference ----


def reference_quadratic_matrix(s2):
    n = s2.nvars
    a = [[Scalar(0)] * n for _ in range(n)]
    half = Scalar(Fraction(1, 2))
    for exps, coeff in s2.sorted_terms():
        coeff = Scalar._coerce(coeff)  # the reference computes on Scalars
        support = [i for i, e in enumerate(exps) if e]
        if sum(exps) != 2:
            raise DimensionMismatchError("expected a homogeneous quadratic")
        if len(support) == 1:
            i = support[0]
            a[i][i] = coeff
        else:
            i, j = support
            a[i][j] = a[j][i] = coeff * half
    return a


def reference_canonical_poly(n, tag, alpha, signs):
    y = [Poly.variable(n, i) for i in range(n)]
    if tag == DEGENERATE:
        return y[0] * y[0] * alpha
    if tag == RANK2:
        return y[0] * y[0] * alpha + signs[0] * y[1] * y[1]
    if tag == FULL:
        return (
            y[0] * y[0] * alpha
            + signs[0] * y[1] * y[1]
            + signs[1] * y[2] * y[2]
        )
    if tag == PRODUCT:
        return y[0] * y[1]
    if tag == PRODUCT_PLUS:
        return y[0] * y[1] + signs[0] * y[2] * y[2]
    raise LinnijError("unknown tag %r" % tag)


def reference_finish(s2, tag, alpha, signs, rows):
    n = s2.nvars
    change = scalar_mat_inverse(rows)
    canonical = reference_canonical_poly(n, tag, alpha, signs)
    if s2.substitute_linear(change) != canonical:
        raise LinnijError("internal: change does not reach the %s normal form" % tag)
    if change[0] != [ONE if j == 0 else Scalar(0) for j in range(n)]:
        raise LinnijError("internal: change moves the first coordinate")
    return Sigma2NormalForm(tag, canonical, change, alpha, signs)


def reference_sqrt_row(a, pivot, n):
    app = a[pivot][pivot]
    scale = scalar_sqrt(abs(app))
    row = []
    for m in range(n):
        if m == pivot:
            row.append(scale)
        else:
            row.append(scale * a[pivot][m] / app)
    return row, app.sign()


def reference_eliminate(a, pivot, n):
    app = a[pivot][pivot]
    out = [[Scalar(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == pivot or j == pivot:
                continue
            out[i][j] = a[i][j] - a[i][pivot] * a[pivot][j] / app
    return out


def reference_normalize_sigma2(s2):
    """Per-dimension case analysis: last diagonal entry first, then the
    middle one, then the cross-term split by recursion, then the
    pure-product and degenerate leftovers."""
    n = s2.nvars
    if n not in (2, 3):
        raise DimensionMismatchError("normal forms implemented for 2 or 3 variables")
    if not (s2.is_zero() or s2.is_homogeneous(2)):
        raise DimensionMismatchError("expected a homogeneous quadratic")
    a = reference_quadratic_matrix(s2)
    e1 = [ONE if j == 0 else Scalar(0) for j in range(n)]

    def unit(j):
        return [ONE if m == j else Scalar(0) for m in range(n)]

    if n == 2:
        if not a[1][1].is_zero():
            row, sign = reference_sqrt_row(a, 1, n)
            rem = reference_eliminate(a, 1, n)
            return reference_finish(s2, RANK2, rem[0][0], (sign,), [e1, row])
        if not a[0][1].is_zero():
            row = [a[0][0], 2 * a[0][1]]
            return reference_finish(s2, PRODUCT, None, (), [e1, row])
        return reference_finish(s2, DEGENERATE, a[0][0], (), [e1, unit(1)])

    for pivot, other in ((2, 1), (1, 2)):
        if a[pivot][pivot].is_zero():
            continue
        row_p, sign_p = reference_sqrt_row(a, pivot, n)
        rem = reference_eliminate(a, pivot, n)
        if not rem[other][other].is_zero():
            row_o, sign_o = reference_sqrt_row(rem, other, n)
            rem2 = reference_eliminate(rem, other, n)
            alpha = rem2[0][0]
            if sign_o >= sign_p:
                return reference_finish(
                    s2, FULL, alpha, (sign_o, sign_p), [e1, row_o, row_p])
            return reference_finish(
                s2, FULL, alpha, (sign_p, sign_o), [e1, row_p, row_o])
        if not rem[0][other].is_zero():
            linear = [Scalar(0)] * n
            linear[0] = rem[0][0]
            linear[other] = 2 * rem[0][other]
            return reference_finish(
                s2, PRODUCT_PLUS, None, (sign_p,), [e1, linear, row_p])
        complement = unit(1 if pivot == 2 else 2)
        return reference_finish(
            s2, RANK2, rem[0][0], (sign_p,), [e1, row_p, complement])

    if not a[1][2].is_zero():
        split = [
            [ONE, Scalar(0), Scalar(0)],
            [Scalar(0), ONE, ONE],
            [Scalar(0), ONE, Scalar(-1)],
        ]
        inner = reference_normalize_sigma2(s2.substitute_linear(split))
        change = scalar_mat_mul(split, inner.change)
        if s2.substitute_linear(change) != inner.canonical:
            raise LinnijError("internal: composed change misses the normal form")
        return Sigma2NormalForm(
            inner.tag, inner.canonical, change, inner.alpha, inner.signs
        )

    if a[0][1].is_zero() and a[0][2].is_zero():
        return reference_finish(s2, DEGENERATE, a[0][0], (), [e1, unit(1), unit(2)])
    linear = [a[0][0], 2 * a[0][1], 2 * a[0][2]]
    complement = unit(2) if not a[0][1].is_zero() else unit(1)
    return reference_finish(s2, PRODUCT, None, (), [e1, linear, complement])


def seeded_quadratic(rng, n):
    """A quadratic over n variables whose coefficients are each zero about
    half the time, else a small integer or, one time in four, a + b sqrt(3)."""
    terms = {}
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.45:
                continue
            exps = [0] * n
            exps[i] += 1
            exps[j] += 1
            if rng.random() < 0.25:
                coeff = Scalar(rng.randint(-2, 2), rng.choice([-1, 1]), 3)
            else:
                coeff = rng.choice([-3, -2, -1, 1, 2, 3])
            terms[tuple(exps)] = coeff
    return Poly(n, terms)


def normal_form_outcome(normalize, s2):
    try:
        nf = normalize(s2)
    except (NotRepresentableError, RadicandMismatchError) as err:
        return type(err).__name__, str(err)
    return nf.tag, nf.canonical, nf.change, nf.alpha, nf.signs


def test_normalize_sigma2_matches_the_reference_seeded():
    rng = random.Random(2024)
    linear_rng = random.Random(2025)
    seen = {2: set(), 3: set()}
    irrational = split = 0
    for count in range(2400):
        n = 2 + count % 2
        s2 = seeded_quadratic(rng, n)
        irrational += any(type(v) is Scalar for _, v in s2.sorted_terms())
        # x2 and x3 with a cross term but no square: the split x2 = u + v,
        # x3 = u - v comes first
        split += s2.terms.keys() & {(0, 2, 0), (0, 1, 1), (0, 0, 2)} == {(0, 1, 1)}
        outcome = normal_form_outcome(normalize_sigma2, s2)
        assert outcome == normal_form_outcome(reference_normalize_sigma2, s2), (
            format_poly(s2, default_names(n)))
        seen[n].add(outcome[0])
        # the readers hand the normal forms ints, which must never meet in
        # an int / int: every value stays exact, never a float
        values = []
        if len(outcome) == 5:
            _, canonical, change, alpha, _ = outcome
            values += [v for row in change for v in row]
            values += [c for _, c in canonical.sorted_terms()]
            values += [] if alpha is None else [alpha]
        s1 = Poly(n, {tuple(int(i == j) for j in range(n)): linear_rng.randint(-3, 3)
                      for i in range(n)})
        if s1:
            values += [v for row in normalize_sigma1(s1)[1] for v in row]
        assert all(type(v) in EXACT_TYPES for v in values), (
            format_poly(s2, default_names(n)), format_poly(s1, default_names(n)), values)
    errors = {"NotRepresentableError", "RadicandMismatchError"}
    assert seen[2] == {RANK2, PRODUCT, DEGENERATE} | errors
    assert seen[3] == {FULL, RANK2, PRODUCT, PRODUCT_PLUS, DEGENERATE} | errors
    assert irrational > 500
    assert split > 100
