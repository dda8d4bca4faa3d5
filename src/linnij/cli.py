"""Command line front end.

Exit codes are uniform across subcommands: 0 for success (including a
successful *diagnosis*, e.g. ``reconstruct`` reporting a non-polynomial
operator), 1 for a failed check (verification failure, nonzero residuals,
nonvanishing torsion), 2 for unusable input (unknown names, malformed
files, out-of-range sizes).
"""

from __future__ import annotations

import json
import os
import random

import click

from .catalog import (
    generalized_L1,
    generalized_L2,
    generalized_blocks,
    load_catalog,
    verify_entry,
)
from .errors import DependentSigmasError, FormatError, LinnijError
from .exactfield import ONE
from .nijenhuis import operator_is_linear, torsion
from .polymatrix import PolyMatrix
from .polyring import Poly
from .reconstruct import (
    CASE_TAGS,
    check_solution,
    generate_linearity_system,
    normalize_case_tag,
    param_sigmas,
    parse_assignment,
    parse_system,
    reconstruct_operator,
)
from .textio import default_names, format_poly, format_scalar, parse_poly


class _Main(click.Group):
    """Command group that turns package errors and unreadable or unwritable
    files into a one-line message and exit 2, for every subcommand."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except BrokenPipeError:
            raise
        except (LinnijError, OSError) as exc:
            _fail(str(exc))


@click.group(cls=_Main)
def main():
    """Verified catalog of torsion-free operator fields and the searches
    behind it."""


# -- shared file readers -------------------------------------------------------


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise FormatError("%s: not UTF-8 text: %s" % (path, exc))


def _read_lines(path):
    lines = []
    for lineno, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    return lines


def _read_sigma_file(path):
    lines = _read_lines(path)
    if not lines:
        raise FormatError("%s: no polynomials found" % path)
    names = default_names(len(lines))
    sigmas = []
    for lineno, text in lines:
        try:
            sigmas.append(parse_poly(text, names))
        except FormatError as exc:
            raise FormatError("%s:%d: %s" % (path, lineno, exc))
    return sigmas


def _read_operator_file(path):
    lines = _read_lines(path)
    if not lines:
        raise FormatError("%s: no matrix rows found" % path)
    n = len(lines)
    names = default_names(n)
    rows = []
    for lineno, text in lines:
        cells = [cell.strip() for cell in text.split(";")]
        if len(cells) != n:
            raise FormatError(
                "%s:%d: expected %d entries separated by ';', got %d"
                % (path, lineno, n, len(cells)))
        try:
            rows.append(tuple(parse_poly(cell, names) for cell in cells))
        except FormatError as exc:
            raise FormatError("%s:%d: %s" % (path, lineno, exc))
    return PolyMatrix(tuple(rows))


def _fail(message):
    click.echo(message, err=True)
    raise SystemExit(2)


def _monomial_text(exponents, names):
    return format_poly(Poly.monomial(len(names), exponents, ONE), list(names))


# -- verify-tables -------------------------------------------------------------


@main.command("verify-tables")
@click.option("--entry", "entry_id", default=None, metavar="ID",
              help="Verify one entry (exact id, or a prefix selecting several).")
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
@click.option("--seed", default=0, show_default=True,
              help="Seed for the pointwise spot checks.")
def verify_tables(entry_id, as_json, seed):
    """Re-verify every invariant of the shipped catalog.

    Each entry is checked for vanishing torsion, the stated characteristic
    coefficients, the stated multiplication, independence of the sigmas,
    the covariance identity J*L = S*J, and -- where recorded -- the change
    of coordinates onto the simplified presentation.
    """
    try:
        entries = load_catalog()
    except (FormatError, OSError) as exc:
        _fail("catalog data unusable: %s" % exc)
    index = {e.id: e for e in entries}
    if entry_id is None:
        selected = list(entries)
    elif entry_id in index:
        selected = [index[entry_id]]
    else:
        selected = [e for e in entries if e.id.startswith(entry_id)]
        if not selected:
            _fail("no catalog entry matches %r" % entry_id)
    selected.sort(key=lambda e: e.id)
    reports = [verify_entry(entry, targets=index,
                            rng=random.Random("%d:%s" % (seed, entry.id)))
               for entry in selected]
    nfail = sum(1 for r in reports if not r.ok)
    if as_json:
        click.echo(json.dumps(
            {"entries": [r.to_json_dict() for r in reports],
             "verified": len(reports), "failures": nfail},
            indent=2, ensure_ascii=False))
    else:
        for report in reports:
            if report.ok:
                click.echo("ok   %-8s (%d checks)"
                           % (report.entry_id, len(report.checks)))
            else:
                click.echo("FAIL %-8s" % report.entry_id)
                for name, detail in report.failures():
                    click.echo("     %s: %s" % (name, detail or "failed"))
        click.echo("%d entries verified, %d failures" % (len(reports), nfail))
    raise SystemExit(1 if nfail else 0)


# -- reconstruct ---------------------------------------------------------------


@main.command("reconstruct")
@click.argument("sigma_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Emit a JSON report.")
def reconstruct(sigma_file, as_json):
    """Recover the operator with the given characteristic coefficients.

    SIGMA_FILE holds one polynomial per line (variables x1..xn with n the
    number of lines; blank lines and # comments are skipped).  The operator
    L solves J*L = S*J.  For n >= 4 it is first sought from exact values at
    seeded integer points and kept only when J*L = S*J holds as a
    polynomial identity; otherwise, and for n < 4, it is adj(J)*S*J/det(J).
    When some entry of adj(J)*S*J is not divisible by det(J) the operator is
    not polynomial; that finding is reported entry by entry and still exits
    0.  --json adds det(J) and adj(J)*S*J, which cost the symbolic
    determinant.
    """
    sigmas = _read_sigma_file(sigma_file)
    try:
        result = reconstruct_operator(sigmas)
    except DependentSigmasError as exc:
        _fail("sigmas are functionally dependent (det J == 0); dependent "
              "positions: %s" % ", ".join(str(i) for i in exc.indices))
    names = default_names(len(sigmas))
    if as_json:
        numerators, denominator = result.fraction()
        document = {
            "denominator": format_poly(denominator, names),
            "numerators": [[format_poly(p, names) for p in row]
                           for row in numerators.entries],
            "failures": [{"row": r, "col": c,
                          "remainder": format_poly(rem, names)}
                         for (r, c, rem) in result.failures],
        }
        if result.linear_part is not None:
            document["operator"] = [[format_poly(p, names) for p in row]
                                    for row in result.linear_part.entries]
            document["linear"] = operator_is_linear(result.linear_part)
        click.echo(json.dumps(document, indent=2, ensure_ascii=False))
        raise SystemExit(0)
    if result.failures:
        click.echo("operator is not polynomial: %d entries fail to divide "
                   "by det J = %s" % (len(result.failures),
                                      format_poly(result.fraction()[1], names)))
        for (r, c, rem) in result.failures:
            click.echo("  entry (%d,%d): remainder %s"
                       % (r, c, format_poly(rem, names)))
        raise SystemExit(0)
    click.echo("\n".join("; ".join(format_poly(p, names) for p in row)
                         for row in result.linear_part.entries))
    click.echo("linear: %s"
               % ("yes" if operator_is_linear(result.linear_part) else "no"))
    raise SystemExit(0)


# -- gen-system ----------------------------------------------------------------


@main.command("gen-system")
@click.argument("case")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the listing to a file instead of stdout.")
def gen_system(case, out):
    """Emit the linearity equations for one case of the 3-variable search.

    CASE is one of 1.1, 1.2, 1.3, 2, 2.1, 2.2, 3, 4.1, 4.2 ("2" selects
    2.1).  The listing is self-describing and is accepted back by
    check-solution.
    """
    system = generate_linearity_system(param_sigmas(normalize_case_tag(case)))
    text = system.to_text()
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
        click.echo("wrote %d equations to %s" % (len(system.equations), out))
    else:
        click.echo(text, nl=False)
    raise SystemExit(0)


# -- check-solution ------------------------------------------------------------


def _load_system(reference):
    if reference in CASE_TAGS:
        return generate_linearity_system(param_sigmas(normalize_case_tag(reference)))
    if not os.path.exists(reference):
        raise FormatError(
            "%r is neither a case tag (%s) nor a system file"
            % (reference, ", ".join(CASE_TAGS)))
    return parse_system(_read_text(reference))


@main.command("check-solution")
@click.argument("system_ref", metavar="SYSTEM")
@click.argument("assignment_file", type=click.Path(exists=True, dir_okay=False))
def check_solution_command(system_ref, assignment_file):
    """Substitute a candidate solution into a linearity system.

    SYSTEM is a case tag or the path of a saved gen-system listing;
    ASSIGNMENT_FILE holds "name = value" lines (# comments allowed), one
    for every parameter and alpha unknown the system uses.
    """
    system = _load_system(system_ref)
    assignment = parse_assignment(_read_text(assignment_file))
    result = check_solution(system, assignment)
    if result.ok:
        click.echo("all %d equations satisfied" % len(system.equations))
        raise SystemExit(0)
    geo = system.geo_names()
    # formatted in full first: a value too long to print leaves no partial report
    lines = ["%d of %d equations violated"
             % (len(result.residuals), len(system.equations))]
    lines += ["  %s (%d,%d) %s :: %s"
              % (res.entry, res.row, res.col, _monomial_text(res.monomial, geo),
                 format_scalar(res.value))
              for res in result.residuals[:10]]
    if len(result.residuals) > 10:
        lines.append("  ... and %d more" % (len(result.residuals) - 10))
    click.echo("\n".join(lines))
    raise SystemExit(1)


# -- generalize ----------------------------------------------------------------


@main.command("generalize")
@click.argument("family", type=click.Choice(["L1", "L2", "blocks"]))
# the work grows about fourfold per two steps of n (blocks: 0.85 s at
# n = 12, 3.2 s at n = 14 on a 2-CPU Xeon); a larger n exits 2 at once
@click.argument("n", type=click.IntRange(max=12))
@click.option("--signs", default=None, metavar="SIGNS",
              help="Block signs for the blocks family, e.g. '+,-' or '+-'.")
@click.option("--json", "as_json", is_flag=True, help="Emit the entry as JSON.")
def generalize(family, n, signs, as_json):
    """Build the n-variable member of a generalized family and verify it."""
    sign_list = None
    if signs is not None:
        if family != "blocks":
            _fail("--signs only applies to the blocks family")
        sign_list = []
        for ch in signs:
            if ch == ",":
                continue
            if ch == "+":
                sign_list.append(1)
            elif ch == "-":
                sign_list.append(-1)
            else:
                _fail("bad sign %r in --signs (use + and -)" % ch)
    if family == "L1":
        entry = generalized_L1(n)
    elif family == "L2":
        entry = generalized_L2(n)
    else:
        entry = generalized_blocks(n, sign_list)
    report = verify_entry(entry)
    if as_json:
        click.echo(json.dumps(
            {"entry": entry.to_json_dict(),
             "verification": report.to_json_dict()},
            indent=2, ensure_ascii=False))
        raise SystemExit(0 if report.ok else 1)
    names = default_names(entry.dim)
    click.echo(entry.id)
    click.echo("operator:")
    for row in entry.operator.entries:
        click.echo("  " + "; ".join(format_poly(p, names) for p in row))
    click.echo("sigmas:")
    for k, s in enumerate(entry.sigmas, start=1):
        click.echo("  sigma_%d = %s" % (k, format_poly(s, names)))
    click.echo("relations:")
    for (i, j, k, coeff) in entry.relations.relations():
        click.echo("  e%d*e%d contains %s*e%d" % (i, j, format_scalar(coeff), k))
    if report.ok:
        click.echo("verification: ok (%d checks)" % len(report.checks))
        raise SystemExit(0)
    click.echo("verification: FAILED")
    for name, detail in report.failures():
        click.echo("  %s: %s" % (name, detail or "failed"))
    raise SystemExit(1)


# -- torsion -------------------------------------------------------------------


@main.command("torsion")
@click.argument("operator_file", type=click.Path(exists=True, dir_okay=False))
def torsion_command(operator_file):
    """Evaluate the obstruction tensor of an operator field.

    OPERATOR_FILE holds one matrix row per line, entries separated by ";"
    (the shape reconstruct prints); variables are x1..xn.  Exits 0 when all
    components vanish, 1 with the first nonzero component otherwise.
    """
    operator = _read_operator_file(operator_file)
    witness = torsion(operator).first_nonzero()
    if witness is None:
        click.echo("torsion vanishes")
        raise SystemExit(0)
    i, j, k, poly = witness
    click.echo("nonzero: component (%d,%d,%d) = %s"
               % (i, j, k, format_poly(poly, default_names(operator.rows))))
    raise SystemExit(1)


if __name__ == "__main__":
    main()
