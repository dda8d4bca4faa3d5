"""One timed pass, in a fresh interpreter.

Protocol: the process imports ``linnij.cli`` from the checkout's ``src``
directory and loads the packaged catalog once, which is what every
``linnij`` command pays, then prints ``ready``.  It reads one JSON line,
``{"ops": [[arg, ...], ...], "spans": path or null}``, from standard input,
runs every op through the CLI in-process and prints one JSON line with the
outputs, exit codes and per-op wall seconds, and the times of the speed
probes (speed.py) run before the first op and after each op.  The parent
checks the outputs and scales the times.  With a ``spans`` path the pass is
traced, and its spans are written there.
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
sys.path.insert(0, SRC)

import linnij.cli  # noqa: E402
from linnij.catalog import load_catalog  # noqa: E402

load_catalog()
if not os.path.abspath(linnij.__file__).startswith(SRC + os.sep):
    sys.exit("linnij was imported from %s, not from %s" % (linnij.__file__, SRC))
print("ready", flush=True)

import json  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402

from click.testing import CliRunner  # noqa: E402

import speed  # noqa: E402


def install_tracer():
    import linnij
    from linnij import (catalog, exactfield, nijenhuis, polymatrix, polyring,
                        reconstruct, textio)

    import layers
    from tracer import Tracer

    # GIL-bound pool threads then run one call at a time; see tracer.py.
    sys.setswitchinterval(100.0)
    tracer = Tracer()
    tracer.install(linnij, {
        "catalog": catalog, "textio": textio, "reconstruct": reconstruct,
        "nijenhuis": nijenhuis, "polymatrix": polymatrix,
        "polyring": polyring, "exactfield": exactfield},
        layers.probes(polyring.Poly, polyring.DivisibilityFailure))
    return tracer


def run(ops, tracer):
    runner = CliRunner()
    call = (lambda fn: fn()) if tracer is None else tracer.op
    results = []
    clock = time.perf_counter
    speed.warm_up()
    probes = [speed.probe()]
    for args in ops:
        t0 = clock()
        result = call(lambda: runner.invoke(linnij.cli.main, args))
        seconds = clock() - t0
        probes.append(speed.probe())
        error = result.exception
        if isinstance(error, SystemExit):
            error = None
        results.append([result.exit_code, result.stdout,
                        None if error is None else repr(error), seconds])
    return results, probes


def main():
    spec = json.loads(sys.stdin.readline())
    tracer = install_tracer() if spec["spans"] else None
    results, probes = run(spec["ops"], tracer)
    report = {"ops": results, "probes": probes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        import layers
        report["layers"] = layers.metrics(*tracer.totals())
        report["op_s"] = tracer.op_s
        report["closure_error_s"] = tracer.max_closure_error_s
        with open(spec["spans"], "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
