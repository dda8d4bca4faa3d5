"""The three workloads: the ops of one pass and the check of each op's output.

An op is one ``linnij`` subcommand call; a pass is a workload's whole op
list, once.  Each builder writes the op's input files under ``workdir``
and returns ops as dicts: ``args`` for the CLI, ``check`` naming a
function in :data:`CHECKS`, and ``expect``, the value that function needs.
Every expected value comes from the frozen fixture or from :mod:`oracle`,
never from the code path being timed.
"""

import hashlib
import os

import oracle

CASES = ("1.1", "1.2", "1.3", "2.1", "2.2", "3", "4.1", "4.2")

#: The sigma set (x1, x1*x2) and its recorded diagnosis (acceptance criterion 3).
PRODUCT_SIGMAS = ["x1", "x1*x2"]
PRODUCT_DIAGNOSIS = ("operator is not polynomial: 1 entries fail to divide by "
                     "det J = x1\n  entry (2,1): remainder -x2^2\n")

TORSION_DRAWS = 200
TORSION_DENSITIES = (1.0, 0.3, 0.15)


def _write(path, text):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)
    return path


def _reconstruct_text(rows):
    return "".join("; ".join(row) + "\n" for row in rows) + "linear: yes\n"


def _reconstruct_op(workdir, name, sigmas, rows):
    path = _write(os.path.join(workdir, "sigmas-%s.txt" % name),
                  "".join(s + "\n" for s in sigmas))
    return {"args": ["reconstruct", path], "check": "text",
            "expect": [0, _reconstruct_text(rows)]}


def tables(fixture, rng, workdir, pass_index):
    """verify-tables, reconstruct of every catalog entry and of the product
    sigma set, and torsion on seeded random operators."""
    ops = [{"args": ["verify-tables", "--seed", str(rng.randrange(10 ** 6))],
            "check": "verify", "expect": [e["id"] for e in fixture["catalog"]]}]
    for k, entry in enumerate(fixture["catalog"]):
        ops.append(_reconstruct_op(workdir, "c%d" % k, entry["sigmas"],
                                   entry["operator"]))
    path = _write(os.path.join(workdir, "sigmas-product.txt"),
                  "".join(s + "\n" for s in PRODUCT_SIGMAS))
    ops.append({"args": ["reconstruct", path], "check": "text",
                "expect": [0, PRODUCT_DIAGNOSIS]})
    for k in range(TORSION_DRAWS):
        a = oracle.draw_structure_constants(
            rng, 2 if k % 2 else 3, TORSION_DENSITIES[k % 3])
        path = _write(os.path.join(workdir, "operator-%d.txt" % k),
                      "".join("; ".join(row) + "\n" for row in oracle.operator_rows(a)))
        ops.append({"args": ["torsion", path], "check": "torsion",
                    "expect": 0 if oracle.is_left_symmetric(a) else 1})
    return ops


def search(fixture, rng, workdir, pass_index):
    """The three-variable linearity search: every listing, every recorded
    solution and its perturbation, and the solutions' reconstructions."""
    listings = {}
    ops = []
    for case in CASES:
        listings[case] = path = os.path.join(workdir, "system-%s.txt" % case)
        expect = fixture["listings"][case]
        ops.append({"args": ["gen-system", case, "--out", path], "check": "listing",
                    "expect": [path, expect["equations"], expect["sha256"]]})
    operators = {e["id"]: e["operator"] for e in fixture["catalog"]}
    rest = []
    for sol in fixture["solutions"]:
        listing = listings[sol["case"]]
        total = fixture["listings"][sol["case"]]["equations"]
        path = _write(os.path.join(workdir, "%s.txt" % sol["name"]), sol["assignment"])
        rest.append({"args": ["check-solution", listing, path], "check": "text",
                     "expect": [0, "all %d equations satisfied\n" % total]})
        if sol["perturbed"] is not None:
            path = _write(os.path.join(workdir, "%s-perturbed.txt" % sol["name"]),
                          sol["perturbed"])
            rest.append({"args": ["check-solution", listing, path],
                         "check": "violated", "expect": [sol["violated"], total]})
        if sol["target"] is not None:
            rest.append(_reconstruct_op(workdir, sol["name"], sol["sigmas"],
                                        operators[sol["target"]]))
    rng.shuffle(rest)
    return ops + rest


#: blocks stops at n = 6: the nondegeneracy check of blocks(7) alone takes
#: 38 s.  Reconstruction stops at n = 5, as blocks(6) takes 31 s there.
FAMILY_SIZES = {"L1": range(3, 10), "L2": range(3, 10), "blocks": range(3, 7)}
RECONSTRUCT_MAX_N = 5


def families(fixture, rng, workdir, pass_index):
    """generalize L1/L2 at n = 3..9 and blocks at n = 3..6, and reconstruct
    on the sigmas of every member with n <= 5.

    The block signs change the cost of the blocks members by about 10 %.
    Passes therefore take the sign patterns in turn from a seeded start, so
    every few passes cover each pattern once.
    """
    start = rng.randrange(4)
    ops = []
    for family, sizes in FAMILY_SIZES.items():
        for n in sizes:
            args = ["generalize", family, str(n)]
            if family == "L1":
                operator, sigmas = oracle.family_L1(n)
            elif family == "L2":
                operator, sigmas = oracle.family_L2(n)
            else:
                pattern = start + pass_index
                signs = [-1 if pattern >> j & 1 else 1 for j in range((n - 1) // 2)]
                args += ["--signs", "".join("+" if s > 0 else "-" for s in signs)]
                operator, sigmas = oracle.family_blocks(n, signs)
            rows = [[oracle.format_poly(p, n) for p in row] for row in operator]
            sigma_text = [oracle.format_poly(s, n) for s in sigmas]
            ops.append({"args": args, "check": "generalize",
                        "expect": [n, rows, sigma_text]})
            if n <= RECONSTRUCT_MAX_N:
                path = _write(os.path.join(workdir, "sigmas-%s-%d.txt" % (family, n)),
                              "".join(s + "\n" for s in sigma_text))
                ops.append({"args": ["reconstruct", path], "check": "operator",
                            "expect": [n, rows]})
    return ops


WORKLOADS = {"tables": tables, "search": search, "families": families}


# -- checks: each returns None when the output is right, else a reason -------


def check_text(expect, exit_code, stdout):
    code, text = expect
    if exit_code != code:
        return "exit code %d, expected %d" % (exit_code, code)
    if stdout != text:
        return "output differs from the expected text"
    return None


def check_verify(expect, exit_code, stdout):
    lines = stdout.splitlines()
    if exit_code != 0:
        return "exit code %d, expected 0" % exit_code
    ok = {line.split()[1] for line in lines[:-1] if line.startswith("ok   ")}
    if ok != set(expect) or len(lines) != len(expect) + 1:
        return "entries not all verified"
    if lines[-1] != "%d entries verified, 0 failures" % len(expect):
        return "wrong summary line %r" % lines[-1]
    return None


def check_torsion(expect, exit_code, stdout):
    if exit_code != expect:
        return "exit code %d, but left-symmetry says %d" % (exit_code, expect)
    prefix = "torsion vanishes" if expect == 0 else "nonzero: component"
    if not stdout.startswith(prefix):
        return "output does not start with %r" % prefix
    return None


def check_listing(expect, exit_code, stdout):
    path, equations, digest = expect
    if exit_code != 0:
        return "exit code %d, expected 0" % exit_code
    if stdout != "wrote %d equations to %s\n" % (equations, path):
        return "wrong confirmation line"
    with open(path, "rb") as handle:
        if hashlib.sha256(handle.read()).hexdigest() != digest:
            return "listing differs from the recorded one"
    return None


def check_violated(expect, exit_code, stdout):
    violated, total = expect
    if exit_code != 1:
        return "exit code %d, expected 1" % exit_code
    if not stdout.startswith("%d of %d equations violated\n" % (violated, total)):
        return "expected %d of %d equations violated" % (violated, total)
    return None


def _same_polys(texts, expected, n):
    return (len(texts) == len(expected)
            and all(oracle.parse_poly(t, n) == oracle.parse_poly(e, n)
                    for t, e in zip(texts, expected)))


def _same_rows(lines, rows, n):
    return (len(lines) == len(rows)
            and all(_same_polys(line.strip().split("; "), row, n)
                    for line, row in zip(lines, rows)))


def check_generalize(expect, exit_code, stdout):
    n, rows, sigmas = expect
    if exit_code != 0:
        return "exit code %d, expected 0" % exit_code
    lines = stdout.splitlines()
    try:
        op_at, sig_at, rel_at = (lines.index(h) for h in
                                 ("operator:", "sigmas:", "relations:"))
    except ValueError:
        return "missing section"
    if not _same_rows(lines[op_at + 1:sig_at], rows, n):
        return "operator differs from the closed form"
    stated = [line.partition(" = ")[2] for line in lines[sig_at + 1:rel_at]]
    if not _same_polys(stated, sigmas, n):
        return "sigmas differ from the closed form"
    if not lines[-1].startswith("verification: ok"):
        return "verification did not pass"
    return None


def check_operator(expect, exit_code, stdout):
    n, rows = expect
    if exit_code != 0:
        return "exit code %d, expected 0" % exit_code
    lines = stdout.splitlines()
    if not lines or lines[-1] != "linear: yes":
        return "operator not reported linear"
    if not _same_rows(lines[:-1], rows, n):
        return "operator differs from the family's"
    return None


CHECKS = {"text": check_text, "verify": check_verify, "torsion": check_torsion,
          "listing": check_listing, "violated": check_violated,
          "generalize": check_generalize, "operator": check_operator}


def check(op, exit_code, stdout, error):
    """None when the op's output is right, else the reason it is not."""
    if error is not None:
        return "raised %s" % error
    try:
        return CHECKS[op["check"]](op["expect"], exit_code, stdout)
    except (ValueError, IndexError, ZeroDivisionError) as exc:
        return "unreadable output (%s)" % exc
