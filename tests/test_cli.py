import hashlib
import json
import os
import pathlib
import subprocess
import sys
import time
from fractions import Fraction

import click
import pytest
from click.testing import CliRunner

import linnij
from linnij.cli import main
from linnij.catalog import (
    CatalogEntry, EntryReport, generalized_L1, generalized_blocks, load_catalog)
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


def test_verify_tables_ignores_seed(runner):
    outputs = [runner.invoke(main, ["verify-tables"] + extra)
               for extra in ([], ["--seed", "1"], ["--seed", "2"])]
    assert [r.exit_code for r in outputs] == [0, 0, 0]
    assert outputs[0].output == outputs[1].output == outputs[2].output
    assert outputs[0].output.endswith("23 entries verified, 0 failures\n")

    bad = runner.invoke(main, ["verify-tables", "--seed", "x"])
    assert bad.exit_code == 2
    assert len(bad.output.splitlines()) == 1
    assert "--seed" in bad.output

    help_text = runner.invoke(main, ["verify-tables", "--help"])
    assert help_text.exit_code == 0
    assert "--seed" not in help_text.output


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


def test_reconstruct_json_of_a_polynomial_operator(runner, tmp_path):
    # the operator rows without the symbolic det J: blocks(7) took 7.3 s
    # when --json still printed det J and det J * L
    entry = generalized_blocks(7)
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("".join(format_poly(s) + "\n" for s in entry.sigmas))
    start = time.monotonic()
    result = runner.invoke(main, ["reconstruct", str(sigma_file), "--json"])
    assert time.monotonic() - start < 5
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "failures": [],
        "operator": [[format_poly(p) for p in row]
                     for row in entry.operator.entries],
        "linear": True,
    }


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


def test_reconstruct_of_many_large_prime_radicands_ends_at_once(runner, tmp_path):
    # 999999999989, the largest prime below the radicand limit 10^12, read
    # 100 times: each square-free check stops at the cube root, not at the
    # square root, of what is left to factor
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text(" + ".join(["sqrt(999999999989)*x1"] * 100) + "\nx2\n")
    start = time.monotonic()
    result = runner.invoke(main, ["reconstruct", str(sigma_file)])
    assert time.monotonic() - start < 1
    assert result.exit_code == 0, result.output
    assert result.output == ("-100*sqrt(999999999989)*x1; 1/99999999998900*sqrt(999999999989)\n"
                             "-100*sqrt(999999999989)*x2; 0\n"
                             "linear: no\n")


#: SHA-256 of the stdout of ``reconstruct`` on the sigmas of the largest
#: L1 and blocks sets the point path meets in the CI steps, recorded before
#: the scalar elimination ran on integral rows.
LARGEST_FAMILY_DIGESTS = {
    "L1 16": "e03cb8a546559b51cbd6f61523cb76f01f258d45f8b5a3e42d1a3c93ff8ad58c",
    "blocks 10": "c65c4da16b7d8dfb864a3c6ca9ef036e8805562558bc58efbfc75207e9342622",
}


@pytest.mark.parametrize("label", list(LARGEST_FAMILY_DIGESTS))
def test_reconstruct_of_the_largest_family_sets_is_unchanged(runner, tmp_path, label):
    family, n = label.split()
    entry = (generalized_L1 if family == "L1" else generalized_blocks)(int(n))
    sigma_file = tmp_path / "sigmas.txt"
    sigma_file.write_text("".join(format_poly(s) + "\n" for s in entry.sigmas))
    result = runner.invoke(main, ["reconstruct", str(sigma_file)])
    assert result.exit_code == 0
    assert result.output.endswith("\nlinear: yes\n")
    assert hashlib.sha256(result.output.encode("utf-8")).hexdigest() == \
        LARGEST_FAMILY_DIGESTS[label]


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


HUGE_POWER_LISTINGS = {
    # a^10000 - 1 is 3^10000 - 1 at a = 3 and (1 - 3^10000)/3^10000 at
    # a = 1/3, both too long to print; the power table reaches a^10000
    "a = 3": UNPRINTABLE_INPUTS["check-solution"]["listing.txt"],
    "a = 1/3": UNPRINTABLE_INPUTS["check-solution"]["listing.txt"],
    # b's 2808-bit denominator must not enter the powers of a: over one
    # common denominator they would reach (3*7^1000)^10000
    "a = 3\nb = 1/7^1000": "# linearity system\n# case: 3\n# geometric: x1 x2 x3\n"
                            "# symbols: a b\n# equations: 2\n"
                            "P1 (2,1) x1 :: a^10000 - 1 = 0\n"
                            "P1 (2,1) x2 :: b - 1 = 0\n",
}


@pytest.mark.parametrize("values", list(HUGE_POWER_LISTINGS))
def test_check_solution_of_a_huge_power_exits_2(runner, tmp_path, values):
    listing = tmp_path / "listing.txt"
    listing.write_text(HUGE_POWER_LISTINGS[values])
    assignment = tmp_path / "assignment.txt"
    assignment.write_text(values + "\n")
    start = time.monotonic()
    result = runner.invoke(main, ["check-solution", str(listing), str(assignment)])
    assert time.monotonic() - start < 1
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.output.strip().splitlines() == [
        "integer of 4772 digits is longer than the interpreter converts"]


def huge_exponent_listing(exponent):
    return ("# linearity system\n# case: 3\n# geometric: x1 x2 x3\n# symbols: a\n"
            "# equations: 1\nP1 (2,1) x1 :: a^%d - 1 = 0\n" % exponent)


HUGE_EXPONENT_CHECKS = [
    # (exponent, value of a, exit code, stdout): the power table holds a's
    # powers at the one exponent that occurs, so +-1 answers at once, and
    # any other value is refused before a power past MAX_POWER_BITS is built
    (99999999999999999999, "1", 0, ["all 1 equations satisfied"]),
    (99999999999999999999, "-1", 1, ["1 of 1 equations violated", "  P1 (2,1) x1 :: -2"]),
    (1000000, "-1", 0, ["all 1 equations satisfied"]),
    (99999999999999999999, "3", 2, [
        "a power to the exponent 99999999999999999999 of a value of 2 bits may "
        "have more than 131072 bits"]),
    (1000000, "3", 2, [
        "a power to the exponent 1000000 of a value of 2 bits may have more than "
        "131072 bits"]),
    (1000000, "1/3", 2, [
        "a power to the exponent 1000000 of a value of 2 bits may have more than "
        "131072 bits"]),
    (1000000, "2+sqrt(3)", 2, [
        "a power to the exponent 1000000 of a value of 3 bits may have more than "
        "131072 bits"]),
]


@pytest.mark.parametrize("exponent, value, code, output", HUGE_EXPONENT_CHECKS)
def test_check_solution_of_a_huge_exponent_ends_at_once(runner, tmp_path, exponent,
                                                        value, code, output):
    listing = tmp_path / "listing.txt"
    listing.write_text(huge_exponent_listing(exponent))
    assignment = tmp_path / "assignment.txt"
    assignment.write_text("a = %s\n" % value)
    start = time.monotonic()
    result = runner.invoke(main, ["check-solution", str(listing), str(assignment)])
    assert time.monotonic() - start < 1
    assert result.exit_code == code
    assert "Traceback" not in result.output
    assert result.output.splitlines() == output


HUGE_EXPONENT_SIGMAS = {
    # sigma file -> the stdout recorded before exponents were packed into
    # one int per monomial; each exponent is past 2**16 and the last past
    # 2**64, so every product and print crosses a packed field width
    "x1^100000\n": "-x1^100000\nlinear: no\n",
    "x1\nx2^70000\n": "-x1; 70000*x2^69999\n-1/70000*x2; 0\nlinear: no\n",
    "x1\nx2^99999999999999999999\n":
        "-x1; 99999999999999999999*x2^99999999999999999998\n"
        "-1/99999999999999999999*x2; 0\nlinear: no\n",
}


@pytest.mark.parametrize("sigmas", list(HUGE_EXPONENT_SIGMAS))
def test_reconstruct_of_a_huge_exponent_is_pinned(runner, tmp_path, sigmas):
    path = tmp_path / "sigmas.txt"
    path.write_text(sigmas)
    result = runner.invoke(main, ["reconstruct", str(path)])
    assert result.exit_code == 0
    assert result.stdout == HUGE_EXPONENT_SIGMAS[sigmas]


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


DEEP_NESTING = {
    # command -> input files; each nests a value 5000 parentheses deep
    "reconstruct": {"sigmas.txt": "x1\n%sx2%s\n" % ("(" * 5000, ")" * 5000)},
    "check-solution": {"assignment.txt": "a = %s1%s\n" % ("(" * 5000, ")" * 5000)},
}


@pytest.mark.parametrize("command", list(DEEP_NESTING))
def test_deep_nesting_exits_2(runner, tmp_path, command):
    paths = [] if command == "reconstruct" else ["3"]
    for name, text in DEEP_NESTING[command].items():
        (tmp_path / name).write_text(text)
        paths.append(str(tmp_path / name))
    result = runner.invoke(main, [command] + paths)
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    line = "%s: parentheses nested deeper than 100" % (
        "%s:2" % paths[0] if command == "reconstruct" else "line 1")
    assert result.output.strip().splitlines() == [line]


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
    "missing-equals-zero": (" = 0", ""),
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


def one_write_cases(tmp_path):
    """(label, args) of each text report that may run long: generalize,
    verify-tables, and reconstruct of an operator and of a diagnosis."""
    operator = tmp_path / "operator-sigmas.txt"
    operator.write_text("".join(format_poly(s) + "\n"
                                for s in generalized_blocks(5, [1, 1]).sigmas))
    diagnosis = tmp_path / "diagnosis-sigmas.txt"
    diagnosis.write_text("x1\nx2*x1 + x3^2\nx3*x1\n")
    return [("generalize", ["generalize", "L1", "9"]),
            ("verify-tables", ["verify-tables"]),
            ("reconstruct", ["reconstruct", str(operator)]),
            ("diagnosis", ["reconstruct", str(diagnosis)])]


def test_each_text_report_is_one_write(runner, tmp_path, monkeypatch):
    expected = {label: runner.invoke(main, args) for label, args in one_write_cases(tmp_path)}
    writes = []
    echo = click.echo
    monkeypatch.setattr(click, "echo", lambda *a, **k: writes.append(a) or echo(*a, **k))
    for label, args in one_write_cases(tmp_path):
        del writes[:]
        result = runner.invoke(main, args)
        assert (result.exit_code, result.output) == (
            expected[label].exit_code, expected[label].output), label
        assert result.exit_code == 0 and result.output.count("\n") >= 3, label
        assert len(writes) == 1, (label, len(writes))


@pytest.mark.parametrize("command", ["generalize", "diagnosis"])
def test_a_formatting_error_leaves_no_partial_report(runner, tmp_path, monkeypatch,
                                                    command):
    # the last value the report formats, a relation's coefficient or a
    # remainder, fails: only the one-line error is printed
    args = dict(one_write_cases(tmp_path))[command]
    name = "format_scalar" if command == "generalize" else "format_poly"
    real = getattr(linnij.cli, name)
    calls = []
    monkeypatch.setattr(linnij.cli, name, lambda *a: calls.append(a) or real(*a))
    assert runner.invoke(main, args).exit_code == 0
    last = len(calls)

    def failing(*a):
        calls.append(a)
        if len(calls) == last:
            raise FormatError("planted formatting failure")
        return real(*a)

    del calls[:]
    monkeypatch.setattr(linnij.cli, name, failing)
    result = runner.invoke(main, args)
    assert (result.exit_code, result.output) == (2, "planted formatting failure\n")


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


def run_cli(args):
    """The command line in a fresh interpreter, stdout and stderr apart."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(pathlib.Path(linnij.__file__).parent.parent),
                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "linnij.cli", *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_usage_errors_print_one_line():
    for args, message in (
        (["generalize", "blocks", "13"],
         "Invalid value for 'N': 13 is not in the range x<=12."),
        (["torsion"], "Missing argument 'OPERATOR_FILE'."),
        (["nosuch"], "No such command 'nosuch'."),
        (["--bogus"], "No such option '--bogus'."),
        (["generalize"],
         "Missing argument '{L1|L2|blocks}'. Choose from: L1, L2, blocks"),
    ):
        result = run_cli(args)
        assert (result.returncode, result.stdout) == (2, ""), args
        assert result.stderr == message + "\n", args
    # help is not an error
    result = run_cli(["--help"])
    assert result.returncode == 0 and "Commands:" in result.stdout
    result = run_cli([])
    assert "Commands:" in result.stdout + result.stderr


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


def test_torsion_stops_at_the_first_nonzero_component(runner, tmp_path):
    # the 60 x 60 circulant with entry (i, j) = x((i+j) mod 60 + 1) has
    # 216,000 components; its witness is the second
    n = 60
    operator_file = tmp_path / "operator.txt"
    operator_file.write_text("".join(
        "; ".join("x%d" % ((i + j) % n + 1) for j in range(n)) + "\n"
        for i in range(n)))
    start = time.perf_counter()
    result = runner.invoke(main, ["torsion", str(operator_file)])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 1
    assert result.output == "nonzero: component (1,1,2) = x2 - x60\n"
    assert elapsed < 5.0


def test_torsion_free_sparse_operator_costs_its_nonzero_products(runner, tmp_path):
    # diag(x1..x80) is torsion-free, so every one of its components is
    # checked; nearly all of them have no nonzero product to form
    n = 80
    operator_file = tmp_path / "operator.txt"
    operator_file.write_text("".join(
        "; ".join("x%d" % (i + 1) if i == j else "0" for j in range(n)) + "\n"
        for i in range(n)))
    start = time.perf_counter()
    result = runner.invoke(main, ["torsion", str(operator_file)])
    elapsed = time.perf_counter() - start
    assert result.exit_code == 0
    assert result.output == "torsion vanishes\n"
    assert elapsed < 5.0


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
    for family in ("L1", "L2", "blocks"):
        for n in range(10, 13):
            commands.append(("%s %d text" % (family, n),
                             ["generalize", family, str(n)]))
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
#: determinants, cofactors and dependence tests shared one elimination.  The
#: ``reconstruct`` pins of polynomial operators were recorded again when
#: --json stopped printing det J and adj(J) S J for them; each new document
#: is the old one without those two keys.  The text-mode ``generalize`` pins
#: at n = 10..12 were recorded before structure constants and matrix products
#: went sparse.  The ``verify-tables`` pin was recorded again when the
#: seeded ``sample`` spot check was dropped; the new document is the old one
#: with every ``sample`` check removed.
PINNED_DIGESTS = {
    "verify-tables": "422eaa329f7b6216849cb6b0f92bfe37e0e63f43dedc5e57a5b4967c0cb87d5a",
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
    "L1 10 text": "3a8707aeb65595552d2c3019c72c8f1135469578d1ac1c63766f133bf0b1271c",
    "L1 11 text": "8eba41b016b6ae33434a1ad2785ac6772b3954c02f3ce799ebc22735c78531e9",
    "L1 12 text": "4bb32f3d2c5108d0ebca22659cca085c63235585c99611a015d56d20767c525f",
    "L2 10 text": "f7bfff221eb0f2407dd6463f89b6f3733d292cd7e4e8bb3c62e34ce412e9c04d",
    "L2 11 text": "08aedc0480ea306ecc76aa419263577c9b29d88a10aceceef731658b2ab813ee",
    "L2 12 text": "efeaa9d91a2cbd66f5fb406a9470bc43f2b584072f2b7cf60640ef717fcf04c9",
    "blocks 10 text": "d889beaef0b1c7e2d02881bbfb42c7ad10287e76a23f9280d9d665668c6ad633",
    "blocks 11 text": "bff4d873bda1420c486b5fc38e1f06b898e147584dd58a62fb069865569c6a19",
    "blocks 12 text": "b505d5a0cfaced56832fcf2a939c53f1b775964d38450fe3d33f6d31a79d7260",
    "reconstruct d": "b4f6786a7d65d5f4c5aaba9df4eabd970ba4a2047ea40ceef01105ef2a748145",
    "reconstruct b4+": "ceb78fde698fdcbd99a34ddb711c00e69952b692a66afab5222089566869ef30",
    "reconstruct b4-": "ebebb1dd372b97b3487ddc95fd9b47467f20f5ed21c7fce5fa7b2153b8d2b537",
    "reconstruct c5+": "f1568349a7c139d78c81b45fe14f8919a1dab2a18228043f416f77ca7f9a8024",
    "reconstruct c5-": "f4969c55d28741cd1fab4e071d409a1f1e41808576d9f76e962abf82389de596",
    "reconstruct b4+⊕d": "69b60e41fb8eca65a8d65302bafa27b8990e7fe1f9b67bab36c25f99dfa47482",
    "reconstruct b4-⊕d": "832cec46f9496209cf2834e82d23640c34811afd366d3e7bc1d4dc67bd039580",
    "reconstruct c5+⊕d": "51915efeea672faed410e689267b8b26ef062b868fc7a3aa229af728e0be083b",
    "reconstruct c5-⊕d": "80f0555eb77451234e4d762b291697589af0edf041ac3a46d428f3e2d09b56f2",
    "reconstruct ind3.1": "33f68458815901a737c8c76633e5421f7157088990fb44d7541722ce05907f60",
    "reconstruct ind3.2": "becb941689e0ece08c9b6c70bb8111c49c9512795b8631cf4d1b3c2ccefbed36",
    "reconstruct ind3.3": "a69ac8ca6373f7cf5ac0d12fab126b3d2eeca2792ba54a31d39fcf1866a3112e",
    "reconstruct ind3.4": "08dd9417200e0e0ff7bf5c01b00f7232af1dbb8fb1b89db7601425d691e41dd5",
    "reconstruct L1": "08dd9417200e0e0ff7bf5c01b00f7232af1dbb8fb1b89db7601425d691e41dd5",
    "reconstruct L2": "f9bd48ea5d9859817f6c2c42457da087f9fab6262449adff66cf1b944ad9f2ab",
    "reconstruct L3": "47715570ea96f9cc6d085547bdf975ca500007edb8433dbb7da55fc3ef232820",
    "reconstruct L4": "fd7235abd61160df1825c87e819a610ce5f39d91d9333979936b7955f6097c9a",
    "reconstruct L5+": "5839e075a29250d1154a84f82fd6b1302abf2106a141492d6ab1d08301db8f4d",
    "reconstruct L5-": "5839e075a29250d1154a84f82fd6b1302abf2106a141492d6ab1d08301db8f4d",
    "reconstruct L6+": "3f246e0c4df2bfbff4fd49d0f2ec6d25438512c1ef7a1bd6690295d6dee09674",
    "reconstruct L6-": "3f246e0c4df2bfbff4fd49d0f2ec6d25438512c1ef7a1bd6690295d6dee09674",
    "reconstruct L7": "ad8183444ce8221a9d25b5548501f576f666c63a2513d34e2fc808d8ac311e16",
    "reconstruct L8": "c24f0d66c304293fcb1870159627c6bea73feda93442d34f728a852cd3c156cd",
    "reconstruct product": "34579ba62d9e8fa9187b9ab00833956927d5db2a126a4c1ca3e87977973f4a0d",
    "reconstruct dependent": "ff137c0da5c4cd2db93fd9dcd296698e69ff05144d1ca58c9bab3feec221919b",
}


def test_pinned_output_is_unchanged(runner, tmp_path):
    commands = pinned_commands(tmp_path)
    assert [label for label, _ in commands] == list(PINNED_DIGESTS)
    changed = [label for label, args in commands
               if output_digest(runner.invoke(main, args)) != PINNED_DIGESTS[label]]
    assert changed == []
