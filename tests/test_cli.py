import hashlib
import json
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from linnij.cli import main
from linnij.catalog import CatalogEntry, EntryReport, load_catalog
from linnij.errors import FormatError
from linnij.exactfield import Scalar
from linnij.reconstruct import generate_linearity_system, param_sigmas
from linnij.textio import format_poly, format_scalar

from known_solutions import CASE11_SOLUTIONS, full_assignment


@pytest.fixture()
def runner():
    return CliRunner()


def write_assignment(path, values):
    lines = []
    for name, value in values.items():
        if not isinstance(value, Scalar):
            value = Scalar(value)
        lines.append("%s = %s" % (name, format_scalar(value)))
    path.write_text("\n".join(lines) + "\n")


# -- verify-tables ---------------------------------------------------------------


def test_verify_tables_single_entry(runner):
    result = runner.invoke(main, ["verify-tables", "--entry", "d"])
    assert result.exit_code == 0
    assert "ok   d" in result.output
    assert "1 entries verified, 0 failures" in result.output


def test_verify_tables_prefix_selection(runner):
    result = runner.invoke(main, ["verify-tables", "--entry", "L5"])
    assert result.exit_code == 0
    assert "ok   L5+" in result.output and "ok   L5-" in result.output
    assert "2 entries verified, 0 failures" in result.output


def test_verify_tables_json(runner):
    result = runner.invoke(main, ["verify-tables", "--entry", "b4+", "--json"])
    assert result.exit_code == 0
    document = json.loads(result.output)
    assert document["verified"] == 1 and document["failures"] == 0
    assert document["entries"][0]["id"] == "b4+"
    assert all(c["ok"] for c in document["entries"][0]["checks"])


def test_verify_tables_full_run(runner):
    result = runner.invoke(main, ["verify-tables"])
    assert result.exit_code == 0
    lines = result.output.splitlines()
    ids = [line.split()[1] for line in lines[:-1]]
    assert all(line.startswith("ok   ") for line in lines[:-1])
    assert ids == sorted(e.id for e in load_catalog())
    assert len(ids) == 23
    assert lines[-1] == "23 entries verified, 0 failures"


def test_verify_tables_unknown_entry(runner):
    result = runner.invoke(main, ["verify-tables", "--entry", "zzz"])
    assert result.exit_code == 2
    assert "no catalog entry matches" in result.output


def test_verify_tables_unusable_catalog(runner, monkeypatch):
    def broken():
        raise FormatError("synthetic corruption")

    monkeypatch.setattr("linnij.cli.load_catalog", broken)
    result = runner.invoke(main, ["verify-tables"])
    assert result.exit_code == 2
    assert "catalog data unusable" in result.output


def test_verify_tables_reports_failures(runner, monkeypatch):
    good = next(e for e in load_catalog() if e.id == "d")
    tampered_json = good.to_json_dict()
    tampered_json["sigmas"] = ["x1 + 1"]
    tampered = CatalogEntry.from_json_dict(tampered_json)
    monkeypatch.setattr("linnij.cli.load_catalog", lambda: [tampered])
    result = runner.invoke(main, ["verify-tables"])
    assert result.exit_code == 1
    assert "FAIL d" in result.output
    assert "1 entries verified, 1 failures" in result.output


# -- reconstruct -----------------------------------------------------------------


def test_reconstruct_success(runner, tmp_path):
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("x1\n1/4*x1^2 + x2^2\n")
    result = runner.invoke(main, ["reconstruct", str(sigma_file)])
    assert result.exit_code == 0
    assert "-1/2*x1; 2*x2" in result.output
    assert "-1/2*x2; -1/2*x1" in result.output
    assert "linear: yes" in result.output


def test_reconstruct_diagnoses_non_polynomial(runner, tmp_path):
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("# a product case\nx1\nx1*x2\n")
    result = runner.invoke(main, ["reconstruct", str(sigma_file)])
    assert result.exit_code == 0
    assert (
        "operator is not polynomial: 1 entries fail to divide by det J = x1"
        in result.output
    )
    assert "entry (2,1): remainder -x2^2" in result.output


def test_reconstruct_json(runner, tmp_path):
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("x1\nx1*x2\n")
    result = runner.invoke(main, ["reconstruct", str(sigma_file), "--json"])
    assert result.exit_code == 0
    document = json.loads(result.output)
    assert document["denominator"] == "x1"
    assert document["numerators"] == [
        ["-x1^2 + x1*x2", "x1^2"],
        ["-x2^2", "-x1*x2"],
    ]
    assert document["failures"] == [
        {"row": 2, "col": 1, "remainder": "-x2^2"}
    ]
    assert "operator" not in document


def test_reconstruct_dependent_sigmas(runner, tmp_path):
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("x1\nx1^2\n")
    result = runner.invoke(main, ["reconstruct", str(sigma_file)])
    assert result.exit_code == 2
    assert "functionally dependent" in result.output


def test_reconstruct_bad_file(runner, tmp_path):
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("x1\nx9\n")
    result = runner.invoke(main, ["reconstruct", str(sigma_file)])
    assert result.exit_code == 2

    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    result = runner.invoke(main, ["reconstruct", str(empty)])
    assert result.exit_code == 2


def test_reconstruct_rejects_huge_radicand(runner, tmp_path):
    # a square-free check by trial division would not finish on this prime
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("x1\nsqrt(1000000000000000000000000000057)*x2^2\n")
    start = time.monotonic()
    result = runner.invoke(main, ["reconstruct", str(sigma_file)])
    assert time.monotonic() - start < 5
    assert result.exit_code == 2
    assert "Traceback" not in result.output
    assert "exceeds the limit" in result.output


@pytest.mark.parametrize("sigma_text", [
    "x1 + %s\nx2\n" % ("1" * 5000),
    "x1^%s\nx2\n" % ("9" * 5000),
    "x1 + sqrt(%s)\nx2\n" % ("1" * 5000),
], ids=["atom", "exponent", "radicand"])
def test_reconstruct_rejects_oversized_literal(runner, tmp_path, sigma_text):
    # int() refuses literals past the interpreter's digit limit
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text(sigma_text)
    result = runner.invoke(main, ["reconstruct", str(sigma_file)])
    assert result.exit_code == 2
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("%s:1: integer literal of " % sigma_file)


UNPRINTABLE_INPUTS = {
    # each command prints 3^10000 (4772 digits), past the interpreter's
    # 4300-digit limit for converting an int to a string; the parser takes
    # it as two powers, since one power that long is refused
    "reconstruct": {"sigmas.txt": "9^2500*9^2500*x1\n"},
    "torsion": {"operator.txt": "x1 ; x2\n9^2500*9^2500*x1 ; x1\n"},
    "check-solution": {
        "listing.txt": "# linearity system\n# case: 3\n# geometric: x1 x2 x3\n"
                       "# symbols: a\n# equations: 1\n"
                       "P1 (2,1) x1 :: a^10000 - 1 = 0\n",
        "assignment.txt": "a = 3\n",
    },
}


@pytest.mark.parametrize("command", list(UNPRINTABLE_INPUTS))
def test_unprintable_number_exits_2(runner, tmp_path, command):
    paths = []
    for name, text in UNPRINTABLE_INPUTS[command].items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    result = runner.invoke(main, [command] + paths)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.strip().splitlines() == [
        "integer of 4772 digits is longer than the interpreter converts"]


HUGE_POWERS = {
    # power -> the end of its one-line refusal
    "3^1000000": "integer power 3^1000000 has more than 4300 digits",
    "3^10000000": "integer power 3^10000000 has more than 4300 digits",
    "3^1000000000000": "integer power 3^1000000000000 has more than 4300 digits",
    "(3)^300000": "power (3)^300000 has more than 4300 digits",
    "(3)^3000000": "power (3)^3000000 has more than 4300 digits",
    "(1/2)^3000000": "power (1/2)^3000000 has more than 4300 digits",
    "sqrt(3)^3000000": "power (1*sqrt(3))^3000000 may have more than 4300 digits",
}


@pytest.mark.parametrize("command", ["reconstruct", "torsion"])
@pytest.mark.parametrize("power", list(HUGE_POWERS))
def test_huge_integer_power_exits_2(runner, tmp_path, command, power):
    # the power is refused from its base's bit length, before it is built
    path = tmp_path / "input.txt"
    path.write_text("%s*x1\n" % power if command == "reconstruct"
                    else "x1 ; x2\n%s*x1 ; x1\n" % power)
    start = time.monotonic()
    result = runner.invoke(main, [command, str(path)])
    assert time.monotonic() - start < 1
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    lines = result.output.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].endswith(HUGE_POWERS[power])


def test_reconstruct_internal_error_exits_2(runner, tmp_path, monkeypatch):
    # a Bareiss step that fails to divide is a package error, not a crash;
    # three sigmas, since the first step of an elimination divides by nothing
    import linnij.polymatrix
    from linnij.polyring import DivisibilityFailure

    monkeypatch.setattr(linnij.polymatrix, "exact_divide",
                        lambda p, q: DivisibilityFailure(p))
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("x1\nx2\nx3^2\n")
    result = runner.invoke(main, ["reconstruct", str(sigma_file)])
    assert result.exit_code == 2
    assert result.output.strip().splitlines() == [
        "internal: fraction-free step failed to divide"]


def test_reconstruct_mixed_radicands(runner, tmp_path):
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("x1 + sqrt(2)\nx2^2 + sqrt(3)*x1\n")
    result = runner.invoke(main, ["reconstruct", str(sigma_file)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert result.output.strip().splitlines() == [
        "cannot mix sqrt(3) with sqrt(2)"]


# -- gen-system ------------------------------------------------------------------


def test_gen_system_stdout(runner):
    result = runner.invoke(main, ["gen-system", "2"])
    assert result.exit_code == 0
    assert result.output.startswith("# linearity system\n# case: 2.1\n")
    assert "# equations: 90" in result.output


def test_gen_system_to_file(runner, tmp_path):
    out = tmp_path / "system.txt"
    result = runner.invoke(main, ["gen-system", "4.1", "--out", str(out)])
    assert result.exit_code == 0
    assert "wrote 90 equations to" in result.output
    text = out.read_text()
    assert text.startswith("# linearity system\n# case: 4.1\n")


def test_gen_system_unwritable_out(runner, tmp_path):
    out = tmp_path / "missing-dir" / "system.txt"
    result = runner.invoke(main, ["gen-system", "1.1", "--out", str(out)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "No such file or directory" in result.output


def test_gen_system_unknown_case(runner):
    result = runner.invoke(main, ["gen-system", "9.9"])
    assert result.exit_code == 2
    assert "unknown case tag" in result.output


# -- check-solution --------------------------------------------------------------


def test_check_solution_accepts_known_solution(runner, tmp_path):
    name, params, alphas, _, _ = CASE11_SOLUTIONS[1]
    assert name == "s2"
    assignment = tmp_path / "solution.txt"
    write_assignment(assignment, full_assignment(params, alphas))
    result = runner.invoke(main, ["check-solution", "1.1", str(assignment)])
    assert result.exit_code == 0
    assert "all 90 equations satisfied" in result.output


def test_check_solution_against_saved_listing(runner, tmp_path):
    listing = tmp_path / "system.txt"
    assert runner.invoke(
        main, ["gen-system", "1.1", "--out", str(listing)]
    ).exit_code == 0
    name, params, alphas, _, _ = CASE11_SOLUTIONS[0]
    assert name == "s1"
    assignment = tmp_path / "solution.txt"
    write_assignment(assignment, full_assignment(params, alphas))
    result = runner.invoke(main, ["check-solution", str(listing), str(assignment)])
    assert result.exit_code == 0
    assert "all 90 equations satisfied" in result.output


def test_check_solution_reports_residuals(runner, tmp_path):
    name, params, alphas, perturb, _ = CASE11_SOLUTIONS[1]
    bad = dict(params)
    bad[perturb] = bad.get(perturb, Fraction(0)) + 1
    assignment = tmp_path / "solution.txt"
    write_assignment(assignment, full_assignment(bad, alphas))
    result = runner.invoke(main, ["check-solution", "1.1", str(assignment)])
    assert result.exit_code == 1
    assert "of 90 equations violated" in result.output
    assert " :: " in result.output


def test_check_solution_truncates_long_reports(runner, tmp_path):
    name, params, alphas, perturb, _ = CASE11_SOLUTIONS[7]
    assert name == "s8"
    bad = dict(params)
    bad[perturb] = bad[perturb] + 1
    assignment = tmp_path / "solution.txt"
    write_assignment(assignment, full_assignment(bad, alphas))
    result = runner.invoke(main, ["check-solution", "1.1", str(assignment)])
    assert result.exit_code == 1
    lines = result.output.splitlines()
    assert lines[0] == "26 of 90 equations violated"
    assert len(lines) == 12
    assert all(line.startswith("  P") and " :: " in line for line in lines[1:11])
    assert lines[11] == "  ... and 16 more"


def test_check_solution_bad_inputs(runner, tmp_path):
    assignment = tmp_path / "solution.txt"
    assignment.write_text("mystery = 1\n")
    result = runner.invoke(main, ["check-solution", "1.1", str(assignment)])
    assert result.exit_code == 2

    result = runner.invoke(
        main, ["check-solution", "no-such-system", str(assignment)]
    )
    assert result.exit_code == 2
    assert "neither a case tag" in result.output

    # a value error carries the line number, as the assignment's other errors do
    assignment.write_text("# first\na =\n")
    result = runner.invoke(main, ["check-solution", "1.1", str(assignment)])
    assert result.exit_code == 2
    assert result.output.strip().splitlines() == ["line 2: unexpected end of input"]


FIRST_EQUATION_EDITS = {
    "position-letter": ("(2,1)", "(a,1)"),
    "position-one-number": ("(2,1)", "(21)"),
    "position-huge": ("(2,1)", "(%s,1)" % ("1" * 5000)),
    "monomial-sum": (" x1^4 ", " x1+x2 "),
    "monomial-zero": (" x1^4 ", " 0 "),
    "geometric-variable": (" = 0", " + x1 = 0"),
    "label-and-position": ("P1 (2,1)", "P9 (7,0)"),
    "label-of-another-entry": ("P1 ", "P2 "),
    "label-missing-number": ("P1 ", "P "),
    "position-first-row": ("(2,1)", "(1,1)"),
    "position-column-zero": ("(2,1)", "(2,0)"),
    "position-past-n": ("(2,1)", "(2,4)"),
}


def broken_listing(kind):
    text = generate_linearity_system(param_sigmas("1.1")).to_text()
    lines = text.splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    if kind == "truncated":
        return "".join(lines[:20])
    if kind == "duplicated":
        return "".join(lines[: first + 1] + lines[first:])
    if kind == "no-count":
        return text.replace("# equations: 90\n", "")
    old, new = FIRST_EQUATION_EDITS[kind]
    assert old in lines[first]
    lines[first] = lines[first].replace(old, new, 1)
    return "".join(lines)


@pytest.mark.parametrize(
    "kind", list(FIRST_EQUATION_EDITS) + ["truncated", "duplicated", "no-count"])
def test_check_solution_rejects_malformed_listing(runner, tmp_path, kind):
    listing = tmp_path / "system.txt"
    listing.write_text(broken_listing(kind))
    name, params, alphas, _, _ = CASE11_SOLUTIONS[0]
    assignment = tmp_path / "solution.txt"
    write_assignment(assignment, full_assignment(params, alphas))
    result = runner.invoke(main, ["check-solution", str(listing), str(assignment)])
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert len(result.output.strip().splitlines()) == 1


@pytest.mark.parametrize("role", ["sigmas", "listing", "assignment"])
def test_input_that_is_not_utf8_exits_2(runner, tmp_path, role):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe")
    listing = tmp_path / "system.txt"
    assert runner.invoke(
        main, ["gen-system", "1.1", "--out", str(listing)]
    ).exit_code == 0
    name, params, alphas, _, _ = CASE11_SOLUTIONS[0]
    assignment = tmp_path / "solution.txt"
    write_assignment(assignment, full_assignment(params, alphas))
    args = {
        "sigmas": ["reconstruct", str(bad)],
        "listing": ["check-solution", str(bad), str(assignment)],
        "assignment": ["check-solution", str(listing), str(bad)],
    }[role]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output == "%s: not UTF-8 text: 'utf-8' codec can't decode " \
        "byte 0xff in position 0: invalid start byte\n" % bad


# -- generalize ------------------------------------------------------------------


def test_generalize_text_output(runner):
    result = runner.invoke(main, ["generalize", "L1", "4"])
    assert result.exit_code == 0
    assert result.output.startswith("L1(n=4)\n")
    assert "operator:" in result.output
    assert "sigma_4 = 1/4*x4^4" in result.output
    assert "verification: ok" in result.output


def test_generalize_blocks_with_signs(runner):
    result = runner.invoke(
        main, ["generalize", "blocks", "5", "--signs", "+,-"]
    )
    assert result.exit_code == 0
    assert "blocks(n=5" in result.output
    assert "verification: ok" in result.output


def test_generalize_reports_failed_checks(runner, monkeypatch):
    planted = EntryReport("L1(n=4)", (
        ("torsion", True, None),
        ("charpoly", False, "sigma mismatch at [2]"),
        ("covariance", False, None),
    ))
    monkeypatch.setattr("linnij.cli.verify_entry", lambda entry: planted)
    result = runner.invoke(main, ["generalize", "L1", "4"])
    assert result.exit_code == 1
    assert result.output.endswith(
        "\nverification: FAILED\n"
        "  charpoly: sigma mismatch at [2]\n"
        "  covariance: failed\n")


def test_generalize_json(runner):
    result = runner.invoke(main, ["generalize", "L2", "4", "--json"])
    assert result.exit_code == 0
    document = json.loads(result.output)
    assert document["entry"]["id"] == "L2(n=4)"
    assert document["verification"]["ok"] is True


def test_generalize_bad_arguments(runner):
    assert runner.invoke(main, ["generalize", "L1", "1"]).exit_code == 2
    assert runner.invoke(main, ["generalize", "L2", "2"]).exit_code == 2
    assert (
        runner.invoke(
            main, ["generalize", "L1", "3", "--signs", "+"]
        ).exit_code
        == 2
    )
    assert (
        runner.invoke(
            main, ["generalize", "blocks", "5", "--signs", "+x"]
        ).exit_code
        == 2
    )
    assert (
        runner.invoke(
            main, ["generalize", "blocks", "5", "--signs", "+"]
        ).exit_code
        == 2
    )
    assert runner.invoke(main, ["generalize", "L9", "3"]).exit_code == 2


def test_generalize_bounds_n(runner):
    # past the bound the command exits 2 before building anything
    for family, n in (("blocks", "13"), ("L1", "1000")):
        start = time.perf_counter()
        result = runner.invoke(main, ["generalize", family, n])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "Invalid value for 'N': %s is not in the range x<=12." % n \
            in result.output
    result = runner.invoke(main, ["generalize", "blocks", "12"])
    assert result.exit_code == 0
    assert result.output.startswith("blocks(n=12")
    assert result.output.endswith("verification: ok (5 checks)\n")


# -- torsion ---------------------------------------------------------------------


def test_torsion_vanishing(runner, tmp_path):
    operator_file = tmp_path / "operator.txt"
    operator_file.write_text("2*x1; -x2\nx2; 0\n")
    result = runner.invoke(main, ["torsion", str(operator_file)])
    assert result.exit_code == 0
    assert "torsion vanishes" in result.output


def test_torsion_nonzero(runner, tmp_path):
    operator_file = tmp_path / "operator.txt"
    operator_file.write_text("x1; x2\nx2; x2\n")
    result = runner.invoke(main, ["torsion", str(operator_file)])
    assert result.exit_code == 1
    assert "nonzero: component (1,1,2) = x2" in result.output


def test_torsion_nonlinear_witness(runner, tmp_path):
    operator_file = tmp_path / "operator.txt"
    operator_file.write_text("x1^2; x2; x3*x1\nx2*x3; 2*x1 - 1; 0\n1; x3^2; x1*x2\n")
    result = runner.invoke(main, ["torsion", str(operator_file)])
    assert result.exit_code == 1
    assert result.output == \
        "nonzero: component (1,1,2) = -2*x1*x2 + 2*x2*x3 - 2*x2\n"


def test_torsion_malformed(runner, tmp_path):
    operator_file = tmp_path / "operator.txt"
    operator_file.write_text("x1; x2\nx2\n")
    result = runner.invoke(main, ["torsion", str(operator_file)])
    assert result.exit_code == 2
    assert "expected 2 entries" in result.output


# -- pinned output -----------------------------------------------------------------


def pinned_commands(tmp_path):
    """(label, argv) of the commands whose output is pinned by digest."""
    commands = [("verify-tables", ["verify-tables", "--json", "--seed", "5"])]
    for family in ("L1", "L2"):
        for n in range(3, 10):
            commands.append(("%s %d" % (family, n),
                             ["generalize", family, str(n), "--json"]))
    for n in range(3, 7):
        count = (n - 1) // 2
        for pattern in range(2 ** count):
            signs = "".join("-" if pattern >> j & 1 else "+" for j in range(count))
            commands.append(("blocks %d %s" % (n, signs),
                             ["generalize", "blocks", str(n), "--signs", signs,
                              "--json"]))
    sigma_sets = [(entry.id, [format_poly(s) for s in entry.sigmas])
                  for entry in load_catalog()]
    sigma_sets += [("product", ["x1", "x1*x2"]),
                   ("dependent", ["x1", "x2", "x1*x2"])]
    for label, sigmas in sigma_sets:
        path = tmp_path / ("sigmas-%s.txt" % label)
        path.write_text("".join(s + "\n" for s in sigmas))
        commands.append(("reconstruct %s" % label,
                         ["reconstruct", str(path), "--json"]))
    return commands


def output_digest(result):
    text = "%d\n%s" % (result.exit_code, result.output)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: SHA-256 of exit code and output of each pinned command, recorded before
#: determinants, cofactors and dependence tests shared one elimination.
PINNED_DIGESTS = {
    "verify-tables": "3b03412f0a99d97b573cb49df32faba8d12866fc8eefe6c55c9d13b0824ee210",
    "L1 3": "8f7b5b5f93ec18a6f319b16fae04377d918394855119fe6db545696d0582e872",
    "L1 4": "993ddc665f32d6e8bcfeeb009dbc52fd4e606560ec14e307c333bd1df3695709",
    "L1 5": "e74c9c3a90dea20b8528bd092d1903dadc41c368bea3ce2dd418b910e8e2adf1",
    "L1 6": "8536262b50af1d2da75906ee0f135f637a0e8bfd6c901a120868a6c5b45964d4",
    "L1 7": "b23e57e1451deeefdd9f88baafd9def7f092f2c76f1422762a3b1177ae99984d",
    "L1 8": "7e42e5d8e4a4cf931c50afe2af894e9a01d33d0fccd263843395f08025312cf9",
    "L1 9": "78b5399e6f0e14c3ce80237ffa239f9c80903fec3d15b9e5082a8c889b77bfe1",
    "L2 3": "b970696f8e2d427ed385c6572a9a2654bf930499a7662b8ce5cf5fcacb812191",
    "L2 4": "6d7b49a2cc51f414bb10d4f72cb8eb27f60aa4571fd980bcfc804c8d4e3f9af4",
    "L2 5": "4520aa0c3ffb354670fa1f49a6f6f4316f88ed097d248f65f8d53800f77b03cb",
    "L2 6": "9cbfb4c99d2d2ce7399151390d4b37b5db12b395f54e7962d34feed535a5b919",
    "L2 7": "4010254261644cb2136affed930595dd3b3a81c1f772f5a778dd1f49c5fd8d3e",
    "L2 8": "4f0faae48aac423b9ab716b0a211ae19b29376a932224f5227a89f50ef543ccb",
    "L2 9": "a4103f2a64d5b87d6c8adc9146f85a82310f64efab5d21bb602f1623be17b34c",
    "blocks 3 +": "7d07b54caab25c199bd4e6fa7d45d637b079c9fd51098080ce2b94d5779acad3",
    "blocks 3 -": "c85a6912263982e83c045958ce731c64caf0e06b73d96e2673ec1da4d7acc174",
    "blocks 4 +": "cfbba6f6961b840e9ba46f4b7bba8b90cdff2f59d0a618cbe94dfdea1d6b3c62",
    "blocks 4 -": "a6cdca2c183d365973da49f7faa7d0250cea0752810cf6f2326a372491faa9e4",
    "blocks 5 ++": "513ce506c9e20b1b816c6a631c2ca13aaa75f6ac3ad25d94a5f970275e4a26df",
    "blocks 5 -+": "f4793852cdd32f15c9b7a2b3dae92ad97d42259adea818e1651c4e542346511f",
    "blocks 5 +-": "164ba6fdd9d2708a147f55376fa054eae8b8cc22286149eb1d320a424afdc94b",
    "blocks 5 --": "1ee458af149cf4a384218eb4523eb7fa2aa261165a49a1964f8af37a7ed82347",
    "blocks 6 ++": "4c6e609a6197b1b685e9c716c0d403e14dcf35934796bfa367de6d2e0527c63e",
    "blocks 6 -+": "ee9afc37047a78fd78eb73baaf4be7071947f835432144ede8f3c8c83c21e54d",
    "blocks 6 +-": "7c13d3ad886594b4895f237d09bd7d968a7c58906f1306f49aa1714faef460a0",
    "blocks 6 --": "c614c7b3958ba5f85bedbff45ef0541be4273a81edf284d4fa5284083b7d71bb",
    "reconstruct d": "ec661fc9d5748b04c33fa3880e289ba881614493ce8359235abda891fb43148c",
    "reconstruct b4+": "6d5f316fe3c8eb06be89f89357feb31d288d5bc36a597389805df16d14412bcf",
    "reconstruct b4-": "553b28eeb84d491e162f7c463f32eeba4be3026aa056d89093c5c200f19b3ab5",
    "reconstruct c5+": "a827af60e19c22c4eeaec2751ba71d644de6422f58dc4e24af81853f9dc41b51",
    "reconstruct c5-": "0ad781560b94a16b153291b7ecde592b565a5fab45bbb3774e2a8ea589dab103",
    "reconstruct b4+⊕d": "0362b696c0e810c60bbe574db123c38a62a177f941f15cd748fa665fe7cc41a0",
    "reconstruct b4-⊕d": "caf0ce3e3a329902425a395cbb734aaa15bb96a3c24f5c7f75a181ea4dd6a09c",
    "reconstruct c5+⊕d": "5cd83ccccf976019bec646e4126c1fe9bc1a47c201750fd75cb39dbac7bc367d",
    "reconstruct c5-⊕d": "c9910a8449663096763140dc73a999977eb21170eee3c47518372d367d143c92",
    "reconstruct ind3.1": "17fa4efb9bbff0e8bf49c2cd2e3f1920151d80d3d988975f7a854b8f46034578",
    "reconstruct ind3.2": "788df807cdf57ce0928a639dfb81f39184a3059ad241a9ded66dbf50627b8a29",
    "reconstruct ind3.3": "f1a0f959294754334b023794326a9cc3e906f318a71c2f06a0555e868da42ee9",
    "reconstruct ind3.4": "e611ff7d31fcf6f491dfabfc0cb6d53f158ad7695785222fedd487b82c6c927a",
    "reconstruct L1": "e611ff7d31fcf6f491dfabfc0cb6d53f158ad7695785222fedd487b82c6c927a",
    "reconstruct L2": "437613e47415860096d629c012d35f7b23ee5525257de378c78854555b538b9a",
    "reconstruct L3": "bfee36b1ba9fceebe22c1406bf524894defbaa58fcc0f4bccfc54b6bfc35442c",
    "reconstruct L4": "9b25948a8afafb3e71889dd26d3d6d2bf11e83f9adac7bb8721815f795446951",
    "reconstruct L5+": "8ceb027e7631fc8e061397ce4545e2f4f3bf5ff654b9e1759518bdc794378e3a",
    "reconstruct L5-": "8ceb027e7631fc8e061397ce4545e2f4f3bf5ff654b9e1759518bdc794378e3a",
    "reconstruct L6+": "7d92769fd322d15ec848ecdbe3596200b17725d7fd0a409c10330bffd05141eb",
    "reconstruct L6-": "7d92769fd322d15ec848ecdbe3596200b17725d7fd0a409c10330bffd05141eb",
    "reconstruct L7": "2bf2284763f2be27c612bada0990b6e4132f9ca7cd98d2af9b94409e6d742df1",
    "reconstruct L8": "19f8482d0d4c6c6b072aaf6dde7eef5966c161a3b5a585aed2765df4d5a73d37",
    "reconstruct product": "34579ba62d9e8fa9187b9ab00833956927d5db2a126a4c1ca3e87977973f4a0d",
    "reconstruct dependent": "ff137c0da5c4cd2db93fd9dcd296698e69ff05144d1ca58c9bab3feec221919b",
}


def test_pinned_output_is_unchanged(runner, tmp_path):
    commands = pinned_commands(tmp_path)
    assert [label for label, _ in commands] == list(PINNED_DIGESTS)
    changed = [label for label, args in commands
               if output_digest(runner.invoke(main, args)) != PINNED_DIGESTS[label]]
    assert changed == []
