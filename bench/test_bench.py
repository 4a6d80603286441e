"""Tests of the benchmark's own logic.

    python3 -m pytest bench          # or: python3 -m unittest discover bench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from branch_invariants import cli  # noqa: E402
from measure import Tracer, min_samples, nearest_rank, samples_beyond  # noqa: E402


def cli_output(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(nearest_rank(samples, 0.9), 90)
        self.assertEqual(nearest_rank(samples, 0.5), 50)
        self.assertEqual(nearest_rank([3.0], 0.9), 3.0)

    def test_ten_samples_beyond_p90(self):
        self.assertEqual(min_samples(0.9), 100)
        self.assertEqual(samples_beyond(100, 0.9), 10)
        self.assertEqual(samples_beyond(99, 0.9), 9)

    def test_tall_classes_runs_enough_queries(self):
        # the run loop keeps going until min_samples are in; the minimum
        # number of passes alone already reaches it
        self.assertGreaterEqual(wl.TALL_QUERIES * run.MIN_PASSES, min_samples(run.TAIL_QUANTILE))


class Generator(unittest.TestCase):
    def test_deterministic_for_a_seed(self):
        self.assertEqual(wl.tall_queries(7), wl.tall_queries(7))
        self.assertNotEqual(wl.tall_queries(7), wl.tall_queries(8))

    def test_admissible_and_in_range(self):
        for seed in range(5):
            queries = wl.tall_queries(seed)
            self.assertEqual(len(queries), wl.TALL_QUERIES)
            long = [q for q in queries if q[0] <= wl.LONG_N[1]]
            self.assertEqual(len(long), wl.TALL_QUERIES // 2)
            for n, beta in queries:
                self.assertTrue(wl.admissible(n, beta), (n, beta))
                self.assertTrue(wl.in_tall_ranges(n, beta), (n, beta))

    def test_admissibility_test(self):
        self.assertTrue(wl.admissible(4, (6, 7)))
        self.assertFalse(wl.admissible(4, (6,)))      # gcd chain ends at 2
        self.assertFalse(wl.admissible(4, (6, 8)))    # 8 divisible by e_1 = 2
        self.assertFalse(wl.admissible(4, (4,)))      # not increasing
        self.assertFalse(wl.admissible(1, (2,)))      # smooth

    def test_closed_forms_match_the_package(self):
        code, stdout, _ = cli_output(wl.invariants_argv(4, (6, 7)))
        doc = json.loads(stdout)
        self.assertEqual(code, 0)
        self.assertEqual(doc["semigroup"], wl.semigroup(4, (6, 7)))
        self.assertEqual(doc["report"]["mu"], wl.conductor(4, (6, 7)))
        self.assertEqual(len(doc["multiplicity_sequence"]), wl.point_count(4, (6, 7)))


class OutputChecks(unittest.TestCase):
    def test_altered_csv_row_fails_the_digest(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "small.csv"
            code, _, stderr = cli_output(
                ["sweep", "--max-mult", "5", "--max-beta", "20", "--format", "csv",
                 "--out", str(out)])
            data = out.read_bytes()
        expected = {"csv_sha256": checks.sha256(data), "summary": stderr.strip()}
        self.assertEqual(checks.sweep_problems(code, data, stderr, expected), [])
        lines = data.decode().splitlines(keepends=True)
        fields = lines[3].split(",")
        fields[3] = str(int(fields[3]) + 2)  # mu of one class
        altered = "".join(lines[:3] + [",".join(fields)] + lines[4:]).encode()
        problems = checks.sweep_problems(code, altered, stderr, expected)
        self.assertEqual(len(problems), 1)
        self.assertIn("sha256", problems[0])

    def test_pinned_digest_is_well_formed(self):
        expected = json.loads((BENCH / "expected.json").read_text())["box-sweep"]
        self.assertEqual(len(expected["csv_sha256"]), 64)
        self.assertIn(f"classes: {wl.SWEEP_CLASSES} ", expected["summary"])
        self.assertTrue(expected["summary"].endswith("failed checks: 0"))

    def test_changed_mu_fails_the_closed_forms(self):
        for n, beta in [(4, (6, 7)), (5, (7,)), (2, (1001,)), (37, (1201,))]:
            code, stdout, _ = cli_output(wl.invariants_argv(n, beta))
            self.assertEqual(checks.report_problems(n, beta, code, stdout), [])
            doc = json.loads(stdout)
            doc["report"]["mu"] += 2
            problems = checks.report_problems(n, beta, code, json.dumps(doc))
            self.assertTrue(any("mu" in p for p in problems), problems)

    def test_changed_point_fails_the_sum_identities(self):
        code, stdout, _ = cli_output(wl.invariants_argv(4, (6, 7)))
        doc = json.loads(stdout)
        doc["multiplicity_sequence"][-1]["multiplicity"] += 1
        problems = checks.report_problems(4, (6, 7), code, json.dumps(doc))
        self.assertTrue(any("sum" in p for p in problems), problems)

    def test_failed_exit_and_garbage_fail(self):
        self.assertTrue(checks.report_problems(4, (6, 7), 3, ""))
        self.assertTrue(checks.report_problems(4, (6, 7), 0, "{not json"))
        self.assertTrue(checks.check_suite_problems(0, "ok   a\nFAIL b: x\n"))


class Operations(unittest.TestCase):
    def test_rejected_and_raising_calls_fail(self):
        check = lambda code, stdout, stderr: checks.check_suite_problems(code, stdout)  # noqa: E731
        with contextlib.redirect_stderr(io.StringIO()):
            rejected = run.run_op(cli, run.Op(["check", "--max-mult", "x"], 1, check))
        self.assertIn("check exited 2", rejected.problems)
        broken = types.SimpleNamespace(main=lambda argv: 1 // 0)
        raised = run.run_op(broken, run.Op(["check"], 1, check))
        self.assertTrue(raised.problems[0].startswith("raised ZeroDivisionError"))

    def test_tally_counts_failures(self):
        tally = run.Tally()
        tally.add("ok", [])
        with contextlib.redirect_stderr(io.StringIO()) as err:
            tally.add("bad", ["wrong"])
        self.assertEqual((tally.attempted, tally.failed), (2, 1))
        self.assertIn("FAILED bad: wrong", err.getvalue())


class Tracing(unittest.TestCase):
    def test_self_time_excludes_children(self):
        tracer = Tracer()
        tracer.request = "cli:0"
        with tracer.span("cli.main") as parent:
            with tracer.span("enumeration.sweep") as child:
                pass
        self.assertEqual(child.parent, parent.span_id)
        self.assertEqual(child.request, "cli:0")
        self.assertAlmostEqual(tracer.self_time("cli.main", "cli"),
                               parent.duration - child.duration)
        self.assertEqual(tracer.busy("enumeration.sweep", "cli")[0], 1)
        self.assertEqual(tracer.busy("enumeration.sweep", "layers")[0], 0)


class Manifest(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(wl.GATED))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)
        self.assertEqual(spec["run_seconds"], run.DEFAULT_SECONDS)


if __name__ == "__main__":
    unittest.main()
