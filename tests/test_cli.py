import json
import time
from fractions import Fraction

import pytest
from click.testing import CliRunner

from linnij.cli import main
from linnij.catalog import CatalogEntry, load_catalog
from linnij.errors import FormatError
from linnij.exactfield import Scalar
from linnij.reconstruct import generate_linearity_system, param_sigmas
from linnij.textio import format_scalar

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


def test_reconstruct_internal_error_exits_2(runner, tmp_path, monkeypatch):
    # a Bareiss step that fails to divide is a package error, not a crash
    import linnij.polymatrix
    from linnij.polyring import DivisibilityFailure

    monkeypatch.setattr(linnij.polymatrix, "exact_divide",
                        lambda p, q: DivisibilityFailure(p))
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("x1\n1/4*x1^2 + x2^2\n")
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


FIRST_EQUATION_EDITS = {
    "position-letter": ("(2,1)", "(a,1)"),
    "position-one-number": ("(2,1)", "(21)"),
    "position-huge": ("(2,1)", "(%s,1)" % ("1" * 5000)),
    "monomial-sum": (" x1^4 ", " x1+x2 "),
    "monomial-zero": (" x1^4 ", " 0 "),
    "geometric-variable": (" = 0", " + x1 = 0"),
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
