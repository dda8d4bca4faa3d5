"""Fast self-test of the benchmark harness (a few seconds).

    python3 benchmarks/selftest.py

Covers percentile selection and the reported sample count, the scaling of
times to the reference speed, self-time subtraction on a synthetic span
tree, and that every output check passes the real CLI output and fails each
deliberately corrupted copy of it.
"""

import json
import os
import random
import shutil
import sys
import tempfile
import threading
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, TraceError  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))
        self.assertEqual(run.percentile(values, 50), 50)
        self.assertEqual(run.percentile(values, 90), 90)
        self.assertEqual(run.percentile([3.0], 90), 3.0)
        self.assertEqual(run.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 90), 10)

    def test_sample_count_and_medians(self):
        passes = [{"setup_s": s, "pass_s": p, "peak_rss_mb": 20.0,
                   "ops": [[0, "", None, t / 1000.0] for t in ops]}
                  for s, p, ops in ((0.1, 2.0, [1, 2, 3]), (0.3, 4.0, [4, 5]),
                                    (0.2, 3.0, [6, 7, 8, 9, 10]))]
        values, samples = run.end_to_end(passes, attempted=10, failed=1)
        self.assertEqual(samples, 10)
        self.assertAlmostEqual(values["setup_s"], 0.2)
        self.assertAlmostEqual(values["pass_s"], 3.0)
        self.assertAlmostEqual(values["op_p50_ms"], 5.0)
        self.assertAlmostEqual(values["op_p90_ms"], 9.0)
        self.assertAlmostEqual(values["ok_ratio"], 0.9)


class ScaleTest(unittest.TestCase):
    def test_times_scale_by_the_bracketing_probes(self):
        import speed
        ref = speed.PROBE_REF_S
        # The host runs at full speed for the first op and at half speed
        # from the second on; set-up ran at full speed.
        report = {"ops": [[0, "", None, 1.0], [0, "", None, 4.0]],
                  "probes": [ref, ref, 2 * ref]}
        run.scale_pass(report, 0.5, ref)
        self.assertAlmostEqual(report["ops"][0][3], 1.0)
        self.assertAlmostEqual(report["ops"][1][3], 4.0 / 1.5)
        self.assertAlmostEqual(report["pass_s"], 1.0 + 4.0 / 1.5)
        self.assertAlmostEqual(report["wall_s"], 5.0)
        self.assertAlmostEqual(report["setup_s"], 0.5)
        self.assertAlmostEqual(report["setup_wall_s"], 0.5)


class OracleTextTest(unittest.TestCase):
    def test_parse_reads_what_format_writes(self):
        from fractions import Fraction
        import oracle
        self.assertEqual(oracle.parse_poly("-x1^2 + 2/3*x1*x2 - 5", 2),
                         {(2, 0): -1, (1, 1): Fraction(2, 3), (0, 0): -5})
        self.assertEqual(oracle.parse_poly("0", 2), {})
        for n in (3, 4, 5):
            for p in oracle.family_blocks(n, [1, -1][:(n - 1) // 2])[1]:
                self.assertEqual(oracle.parse_poly(oracle.format_poly(p, n), n), p)


class BenchmarkFileTest(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"),
                  encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([(m["name"], m["unit"]) for m in spec["end_to_end"]],
                         run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         [tuple(m) for m in run.PER_LAYER])
        self.assertEqual(sorted(w["name"] for w in spec["workloads"]),
                         sorted(workloads.WORKLOADS))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def spend(self, seconds):
        self.now += seconds


class SelfTimeTest(unittest.TestCase):
    def setUp(self):
        self.clock = FakeClock()
        self.tracer = Tracer(clock=self.clock)

    def wrapped(self, key, layer, seconds_before, inner=(), seconds_after=0.0):
        def body():
            self.clock.spend(seconds_before)
            for fn in inner:
                fn()
            self.clock.spend(seconds_after)
        return self.tracer.wrap(body, key, layer)

    def test_span_tree(self):
        # op 10 s: 1 s of cli, then det (2 s own) -> mul (3 s own) -> add
        # (0.5 s own), det another 1 s, then 2.5 s of cli.
        add = self.wrapped("exactfield.Scalar.__add__", "exactfield", 0.5)
        mul = self.wrapped("polyring.Poly.__mul__", "polyring", 1.0, [add], 2.0)
        det = self.wrapped("polymatrix.PolyMatrix.determinant", "polymatrix",
                           2.0, [mul], 1.0)

        def op():
            self.clock.spend(1.0)
            det()
            self.clock.spend(2.5)
        self.tracer.op(op)
        self_s, incl_s, calls, _, _ = self.tracer.totals()
        self.assertEqual(dict(self_s), {"cli": 3.5, "polymatrix": 3.0,
                                        "polyring": 3.0, "exactfield": 0.5})
        self.assertEqual(self.tracer.op_s, 10.0)
        self.assertEqual(incl_s["polymatrix.PolyMatrix.determinant"], 6.5)
        self.assertEqual(incl_s["polyring.mul"], 3.5)
        self.assertEqual(calls["polyring.Poly.__mul__"], 1)

    def test_nested_group_counts_once(self):
        inner = self.wrapped("polyring.Poly.__rmul__", "polyring", 1.0)
        outer = self.wrapped("polyring.Poly.__mul__", "polyring", 1.0, [inner])
        self.tracer.op(outer)
        _, incl_s, calls, _, _ = self.tracer.totals()
        self.assertEqual(incl_s["polyring.mul"], 2.0)
        self.assertEqual(calls["polyring.Poly.__mul__"] + calls["polyring.Poly.__rmul__"], 2)

    def test_worker_thread_time_leaves_cli(self):
        work = self.wrapped("catalog.verify_entry", "catalog", 4.0)

        def op():
            self.clock.spend(1.0)
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
        self.tracer.op(op)
        self_s = self.tracer.totals()[0]
        self.assertEqual(self_s["cli"], 1.0)
        self.assertEqual(self_s["catalog"], 4.0)

    def test_exception_unwinds(self):
        def fail():
            self.clock.spend(2.0)
            raise ValueError("boom")
        bad = self.tracer.wrap(fail, "textio.parse_poly", "textio")
        with self.assertRaises(ValueError):
            self.tracer.op(bad)
        self.assertEqual(self.tracer.totals()[0]["textio"], 2.0)
        self.tracer.op(lambda: self.clock.spend(1.0))
        self.assertEqual(self.tracer.op_s, 3.0)

    def test_overlapping_spans_are_refused(self):
        # Work in another thread that outlasts the op's own waiting time can
        # only mean overlapping spans.
        work = self.wrapped("catalog.verify_entry", "catalog", 4.0)

        def op():
            worker = threading.Thread(target=work)
            worker.start()
            worker.join()
            self.clock.now -= 2.0
        with self.assertRaises(TraceError):
            self.tracer.op(op)


def _corruptions(op, exit_code, stdout):
    """(exit code, stdout, listing text or None) triples that must all fail."""
    flipped = 1 if exit_code == 0 else 0
    out = [(flipped, stdout, None)]
    kind = op["check"]
    if kind == "text":
        out.append((exit_code, stdout.replace("x", "y", 1) + "extra\n", None))
    elif kind == "verify":
        out.append((exit_code, stdout.replace("ok   ", "FAIL ", 1), None))
        out.append((exit_code, "\n".join(stdout.splitlines()[1:]) + "\n", None))
    elif kind == "torsion":
        out.append((exit_code, "nonzero" if exit_code == 0 else "torsion vanishes", None))
    elif kind == "listing":
        out.append((exit_code, stdout, "P1 (2,1) x1 :: b_11 = 0\n"))
    elif kind == "violated":
        count = stdout.split()[0]
        out.append((exit_code, stdout.replace(count, str(int(count) + 1), 1), None))
    elif kind == "generalize":
        lines = stdout.splitlines()
        at = max(i for i, line in enumerate(lines) if line.startswith("  sigma_"))
        lines[at] = lines[at].partition(" = ")[0] + " = x1"
        out.append((exit_code, "\n".join(lines) + "\n", None))
        out.append((exit_code, stdout.replace("  sigma_1 = ", "  sigma_1 = 2*x1^7 + ", 1), None))
        out.append((exit_code, stdout.replace("operator:\n  ", "operator:\n  x2 + ", 1), None))
        out.append((exit_code, stdout.replace("verification: ok", "verification: FAILED"), None))
    elif kind == "operator":
        out.append((exit_code, stdout.replace("x1", "x2", 1), None))
        out.append((exit_code, stdout.replace("linear: yes", "linear: no"), None))
    return out


CHEAP = {"generalize": lambda args: int(args[2]) <= 4,
         "operator": lambda args: "-3." in args[1]}


class CheckTest(unittest.TestCase):
    """Each check accepts the real output and refuses every corrupted copy."""

    @classmethod
    def setUpClass(cls):
        from click.testing import CliRunner
        from linnij.cli import main
        cls.runner, cls.main = CliRunner(), main
        with open(os.path.join(HERE, "fixture.json"), encoding="utf-8") as handle:
            cls.fixture = json.load(handle)
        os.makedirs(run.WORK, exist_ok=True)
        cls.workdir = tempfile.mkdtemp(prefix="selftest-", dir=run.WORK)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir)
        try:
            os.rmdir(run.WORK)
        except OSError:
            pass

    def check_workload(self, workload, kinds):
        # One cheap op of each check, plus every listing: the chosen
        # check-solution op reads one.  All run before any corruption.
        ops = workloads.WORKLOADS[workload](
            self.fixture, random.Random("selftest"), self.workdir, 0)
        chosen = {}
        for op in ops:
            kind = op["check"]
            if kind == "listing" or (kind not in chosen and CHEAP.get(
                    kind, lambda args: True)(op["args"])):
                chosen.setdefault(kind, []).append(op)
        self.assertEqual(set(chosen), kinds)
        outputs = [(op, self.runner.invoke(self.main, op["args"]))
                   for kind_ops in chosen.values() for op in kind_ops]
        for op, result in outputs:
            exit_code, stdout = result.exit_code, result.stdout
            self.assertIsNone(workloads.check(op, exit_code, stdout, None), op["args"])
            self.assertIsNotNone(workloads.check(op, exit_code, stdout, "SystemError()"))
            for bad_code, bad_out, listing in _corruptions(op, exit_code, stdout):
                if listing is not None:
                    with open(op["expect"][0], "a", encoding="utf-8") as handle:
                        handle.write(listing)
                self.assertIsNotNone(workloads.check(op, bad_code, bad_out, None),
                                     (op["args"], bad_code, bad_out))

    def test_tables(self):
        self.check_workload("tables", {"verify", "text", "torsion"})

    def test_search(self):
        self.check_workload("search", {"listing", "text", "violated"})

    def test_families(self):
        self.check_workload("families", {"generalize", "operator"})


if __name__ == "__main__":
    unittest.main()
