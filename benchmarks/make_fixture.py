"""Regenerate benchmarks/fixture.json, the frozen inputs and expected outputs.

Run from the repository root:  python3 benchmarks/make_fixture.py

The benchmark never imports this script.  It reads the frozen file, so a
later change to the program cannot move the benchmark's inputs or its
expected outputs.  The data come from the packaged catalog and from the
recorded solutions of the three-variable search (tests/known_solutions.py),
with the violated-equation counts of acceptance criterion 5.
"""

import hashlib
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from linnij.exactfield import Scalar  # noqa: E402
from linnij.reconstruct import (  # noqa: E402
    derive_alphas,
    generate_linearity_system,
    param_sigmas,
)
from linnij.textio import format_poly, format_scalar  # noqa: E402

from known_solutions import (  # noqa: E402
    CASE11_SOLUTIONS,
    CASE12_SOLUTIONS,
    PARAM_NAMES,
    full_assignment,
)

#: Violated-equation counts of the +1 perturbations (acceptance criterion 5).
VIOLATED = {"s1": 1, "s2": 1, "s3": 4, "s4": 12, "s6": 12, "s7": 14,
            "s8": 26, "t1": 12, "t2": 6, "t3": 5}

CASES = ("1.1", "1.2", "1.3", "2.1", "2.2", "3", "4.1", "4.2")


def coerce(value):
    return value if isinstance(value, Scalar) else Scalar(value)


def assignment_text(values):
    return "".join("%s = %s\n" % (name, format_scalar(coerce(value)))
                   for name, value in values.items())


def solutions(case, rows, derive):
    ps = param_sigmas(case)
    out = []
    for name, params, alphas, perturb, target in rows:
        filled = {p: coerce(params.get(p, 0)) for p in PARAM_NAMES}
        if derive:
            alphas = derive_alphas(ps, filled)
        record = {"name": name, "case": case,
                  "assignment": assignment_text(full_assignment(params, alphas)),
                  "perturbed": None, "violated": None,
                  "target": target, "sigmas": None}
        if perturb is not None:
            bad = dict(filled)
            bad[perturb] = bad[perturb] + Scalar(1)
            record["perturbed"] = assignment_text(full_assignment(bad, alphas))
            record["violated"] = VIOLATED[name]
        if target is not None:
            # Only x1..x3 survive the substitution, so the text reads back
            # over the three geometric names.
            values = {ps.index_of(p): v for p, v in filled.items()}
            record["sigmas"] = [format_poly(s.substitute(values), list(ps.names))
                                for s in ps.sigmas]
        out.append(record)
    return out


def main():
    with open(os.path.join(ROOT, "src", "linnij", "data", "catalog.json"),
              encoding="utf-8") as handle:
        catalog = json.load(handle)
    listings = {}
    for case in CASES:
        text = generate_linearity_system(param_sigmas(case)).to_text()
        listings[case] = {
            "equations": text.count(" = 0\n"),
            "sha256": hashlib.sha256(text.encode("utf-8")).hexdigest()}
    document = {
        "catalog": [{"id": e["id"], "sigmas": e["sigmas"],
                     "operator": e["operator"]} for e in catalog["entries"]],
        "listings": listings,
        "solutions": (solutions("1.1", CASE11_SOLUTIONS, derive=False)
                      + solutions("1.2", CASE12_SOLUTIONS, derive=True)),
    }
    path = os.path.join(ROOT, "benchmarks", "fixture.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, ensure_ascii=False)
        handle.write("\n")


if __name__ == "__main__":
    main()
