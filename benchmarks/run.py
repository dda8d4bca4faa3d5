"""Benchmark of the linnij CLI: one workload, timed passes, checked outputs.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload tables --seed 1 --seconds 35 --trace 0

Each pass runs in a fresh interpreter (benchmarks/child.py) with inputs made
from a pass seed derived from ``--seed``; passes repeat until ``--seconds``
have gone by.  Times are scaled to a reference machine speed by probes run
beside the work (speed.py).  ``--trace 0`` reports the end-to-end metrics.  ``--trace 1``
runs every pass twice, untraced and then traced on the same inputs,
reports the per-layer metrics of the traced runs and the tracing overhead,
and leaves the spans of the last traced pass in .benchtrace/.
A summary goes to standard error; the last line of standard output is the
result as JSON.  The exit code is 0 when a result was printed.
"""

import argparse
import compileall
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import speed
from layers import PER_LAYER
from workloads import WORKLOADS, check

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".benchwork")
TRACES = os.path.join(ROOT, ".benchtrace")
PASS_TIMEOUT_S = 150

END_TO_END = [("setup_s", "s"), ("pass_s", "s"), ("op_p50_ms", "ms"),
              ("op_p90_ms", "ms"), ("ok_ratio", "ratio"), ("peak_rss_mb", "MB")]


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q% of values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def run_pass(ops, spans=None):
    """Run one pass in a fresh interpreter, traced when ``spans`` names a
    file for the spans; returns its report with the timings scaled."""
    env = dict(os.environ)
    env.pop("LINNIJ_WORKERS", None)
    spec = json.dumps({"ops": [op["args"] for op in ops], "spans": spans}) + "\n"
    probe_before = speed.probe()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py")],
                            cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        if ready != "ready\n":
            raise RuntimeError("pass process did not start")
        out, _ = proc.communicate(spec, timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError("pass process exited with code %d" % proc.returncode)
    return scale_pass(json.loads(out.splitlines()[-1]), setup_s, probe_before)


def scale_pass(report, setup_wall_s, probe_before):
    """Scale the pass's timings to the reference speed of speed.py.

    Each op's time is scaled by the probes the pass process ran just before
    and just after it; ``pass_s`` is the sum of the scaled op times.  Set-up
    is scaled by a probe the parent ran just before starting the process and
    the pass process's first probe.  The raw wall times stay in ``wall_s``
    and ``setup_wall_s``.
    """
    probes = report["probes"]
    report["wall_s"] = sum(op[3] for op in report["ops"])
    for op, before, after in zip(report["ops"], probes, probes[1:]):
        op[3] = speed.scale(op[3], before, after)
    report["pass_s"] = sum(op[3] for op in report["ops"])
    report["setup_wall_s"] = setup_wall_s
    report["setup_s"] = speed.scale(setup_wall_s, probe_before, probes[0])
    return report


def check_pass(ops, report, failures):
    """Record a reason for every op whose output is wrong."""
    for op, (exit_code, stdout, error, _) in zip(ops, report["ops"]):
        reason = check(op, exit_code, stdout, error)
        if reason is not None:
            failures.append("%s: %s" % (" ".join(op["args"][:2]), reason))


def measure(workload, seed, seconds, trace=None):
    """Run passes until the next one would end after ``seconds``.

    With ``trace``, a file name, every pass runs once more traced, and the
    spans of the last traced pass are left in that file.  Returns the
    untraced and traced pass reports, the number of ops attempted and the
    reasons of the failed ones.
    """
    with open(os.path.join(HERE, "fixture.json"), encoding="utf-8") as handle:
        fixture = json.load(handle)
    passes, traced, failures, walls = [], [], [], []
    attempted = 0
    workdir = os.path.join(WORK, "%s-%d" % (workload, os.getpid()))
    start = time.perf_counter()
    try:
        while not walls or (time.perf_counter() - start
                            + statistics.median(walls) <= seconds):
            began = time.perf_counter()
            k = len(walls)
            os.makedirs(workdir)
            ops = WORKLOADS[workload](
                fixture, random.Random("%s:%d:%d" % (workload, seed, k)), workdir, k)
            for spans in ((None, trace) if trace else (None,)):
                report = run_pass(ops, spans)
                check_pass(ops, report, failures)
                attempted += len(ops)
                (traced if spans else passes).append(report)
            shutil.rmtree(workdir)
            walls.append(time.perf_counter() - began)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass
    return passes, traced, attempted, failures


def end_to_end(passes, attempted, failed):
    op_ms = [op[3] * 1000.0 for p in passes for op in p["ops"]]
    return {
        "setup_s": statistics.median(p["setup_s"] for p in passes),
        "pass_s": statistics.median(p["pass_s"] for p in passes),
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }, len(op_ms)


def per_layer(passes, traced):
    values = {name: statistics.median(t["layers"][name] for t in traced)
              for name, _, _ in PER_LAYER if name != "trace.overhead_ratio"}
    values["trace.overhead_ratio"] = statistics.median(
        t["pass_s"] / p["pass_s"] for p, t in zip(passes, traced))
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "linnij", "cli.py")):
        print("no linnij sources under %s" % SRC, file=sys.stderr)
        return 2
    compileall.compile_dir(SRC, quiet=1)
    speed.warm_up()

    trace = None
    if args.trace:
        os.makedirs(TRACES, exist_ok=True)
        trace = os.path.join(TRACES, "%s-%d.json" % (args.workload, args.seed))
    passes, traced, attempted, failures = measure(
        args.workload, args.seed, args.seconds, trace)
    for reason in failures[:20]:
        print("FAILED %s" % reason, file=sys.stderr)
    values, samples = end_to_end(passes, attempted, len(failures))
    units = dict(END_TO_END)
    print("%s: %d passes, %d ops attempted, %d failed, fail_ratio %.4f, "
          "%d op latency samples" % (args.workload, len(passes), attempted,
                                     len(failures), len(failures) / attempted,
                                     samples), file=sys.stderr)
    print("pass seconds, scaled: %s" % " ".join("%.3f" % p["pass_s"] for p in passes),
          file=sys.stderr)
    print("pass seconds, wall:   %s" % " ".join("%.3f" % p["wall_s"] for p in passes),
          file=sys.stderr)
    print("wall medians: pass %.4f s, set-up %.4f s"
          % (statistics.median(p["wall_s"] for p in passes),
             statistics.median(p["setup_wall_s"] for p in passes)), file=sys.stderr)
    if args.trace:
        for name, unit in END_TO_END:
            print("  %-32s %14.6g %s" % (name, values[name], unit), file=sys.stderr)
        values = per_layer(passes, traced)
        units = {name: unit for name, unit, _ in PER_LAYER}
        print("%d traced passes, median op time %.3f s, worst closure error "
              "%.3g s, spans of the last one in %s"
              % (len(traced), statistics.median(t["op_s"] for t in traced),
                 max(t["closure_error_s"] for t in traced), trace), file=sys.stderr)
    for name, value in values.items():
        print("  %-32s %14.6g %s" % (name, value, units[name]), file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
