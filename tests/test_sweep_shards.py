"""Sweeps sharded by (n, beta_1) prefix, rows rendered where they are evaluated.

Rendered output must equal the document the standard library builds
from sweep()'s records, serially and with pool workers; the prefix
enumeration must equal the brute-force one; Ctrl-C and an unwritable
--out must each end in one stderr line and a documented exit code.  A
box of one pool task runs serially, and a pool has one worker per task
at most.
"""

from __future__ import annotations

import concurrent.futures
import csv
import io
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branch_invariants.enumeration as en
import branch_invariants.invariants as inv
import branch_invariants.selfcheck as sc
from branch_invariants import (
    EnumerationBounds,
    PointKind,
    enumerate_classes,
    run_identity_suite,
    sweep,
)
from branch_invariants.cli import (
    CSV_COLUMNS,
    SWEEP_TABLE_HEADER,
    _csv_row,
    _table_row,
    main,
)
from branch_invariants.enumeration import THREADS_ENV_VAR, _prefixes, _subtrees
from branch_invariants.invariants import decimal_ratio
from oracles import _class_dict, _report_dict, brute_force_classes, resolution_invariance_reference
from test_stages import break_sigma

SRC = Path(__file__).resolve().parent.parent / "src"

# patches made in this process reach pool workers only when the pool forks them
forks = pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork", reason="pool does not fork"
)


def reference_document(fmt: str, bounds: EnumerationBounds) -> str:
    """The sweep document built in one piece from sweep()'s records."""
    records, summary = sweep(bounds, workers=1)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        writer.writerows(_csv_row(rec).split(",") for rec in records)  # the fields of each row
        return buf.getvalue()
    if fmt == "table":
        return "\n".join([SWEEP_TABLE_HEADER, *map(_table_row, records)]) + "\n"
    q = summary.max_quotient
    doc = {
        "bounds": {
            "max_multiplicity": bounds.max_multiplicity,
            "max_beta": bounds.max_beta,
            "max_pairs": bounds.max_pairs,
        },
        "records": [
            {
                "char_exponents": _class_dict(rec.char_exponents),
                "semigroup": list(rec.semigroup.gens) if rec.semigroup else None,
                "report": _report_dict(rec.report) if rec.report else None,
                "checks": rec.checks,
                "error": rec.error,
            }
            for rec in records
        ],
        "summary": {
            "classes": summary.classes,
            "max_quotient": {
                "num": q.numerator,
                "den": q.denominator,
                "decimal": decimal_ratio(q.numerator, q.denominator),
            },
            "failed_checks": summary.failed,
        },
    }
    return json.dumps(doc, indent=2) + "\n"


def sweep_output(capsys, monkeypatch, fmt, box, threads) -> tuple[int, str]:
    if threads:
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
    code = main(["sweep", "--max-mult", str(box[0]), "--max-beta", str(box[1]),
                 "--format", fmt])
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("box", [(8, 40), (2, 3)])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_rendered_rows_equal_the_reference_document(capsys, monkeypatch, fmt, box, threads):
    code, out = sweep_output(capsys, monkeypatch, fmt, box, threads)
    assert code == 0
    assert out == reference_document(fmt, EnumerationBounds(*box))


@pytest.mark.parametrize("threads", [None, pytest.param("2", marks=forks)])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_failed_rows_equal_the_reference_document(capsys, monkeypatch, fmt, threads):
    break_sigma(monkeypatch)
    code, out = sweep_output(capsys, monkeypatch, fmt, (8, 40), threads)
    assert code == 1
    assert out == reference_document(fmt, EnumerationBounds(8, 40))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 8).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 40))),
    st.sampled_from([None, 1, 2]),
    st.integers(1, 20),
)
def test_prefix_enumeration_matches_brute_force(box, max_pairs, task):
    bounds = EnumerationBounds(*box, max_pairs)
    whole = [(c.n, c.beta) for c in enumerate_classes(bounds)]
    assert whole == brute_force_classes(*box, max_pairs)
    # pool tasks: runs of consecutive prefixes, joined in order
    prefixes = list(_prefixes(bounds))
    runs = [prefixes[i:i + task] for i in range(0, len(prefixes), task)]
    assert [(c.n, c.beta) for run in runs for _, c in _subtrees(bounds, run)] == whole


@forks
def test_worker_tables_live_for_one_sweep(monkeypatch):
    bounds = EnumerationBounds(8, 40)
    assert sweep(bounds, workers=2)[1].failed == 0
    break_sigma(monkeypatch)
    records, summary = sweep(bounds, workers=2)
    failed = [rec for rec in records if not rec.passed]
    assert summary.failed == len(failed) > 0
    assert "tau_min_double_computation failed" in failed[0].error


def test_the_parent_never_fills_the_worker_table(monkeypatch):
    """Serial runs get a new table and pool tasks use their worker's: the parent's stays empty."""
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # the scan is not under test
    bounds = EnumerationBounds(6, 24)
    for threads in ("1", "2"):
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
        sweep(bounds)
        run_identity_suite(bounds)
        assert en._worker_table == {}


@pytest.mark.parametrize("box", [(4, 12), (3, 5)])  # (3, 5) is one pool task
@pytest.mark.parametrize("threads", ["x", "0"])
def test_check_refuses_a_bad_thread_count_as_sweep_does(capsys, monkeypatch, threads, box):
    monkeypatch.setenv(THREADS_ENV_VAR, threads)
    lines = []
    for command in ("sweep", "check"):
        assert main([command, "--max-mult", str(box[0]), "--max-beta", str(box[1])]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.count("\n") == 1
        lines.append(captured.err)
    assert lines[0] == lines[1]
    assert lines[0].startswith(f"error: {THREADS_ENV_VAR} must be")


def test_a_box_of_one_task_starts_no_pool(monkeypatch):
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # the scan is not under test
    bounds = EnumerationBounds(3, 8)
    assert en.TASK_PREFIXES >= len(list(_prefixes(bounds))) > 1
    serial = sweep(bounds, workers=1), run_identity_suite(bounds)

    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    assert (sweep(bounds, workers=2), run_identity_suite(bounds)) == serial


def test_the_pool_starts_at_most_one_worker_per_task(monkeypatch):
    class InlinePool:
        """Runs the tasks in this process, each on a new table, and records its size."""

        sizes = []

        def __init__(self, max_workers, **kwargs):
            self.sizes.append(max_workers)

        def map(self, fn, *iterables):
            return [fn(*args, {}) for args in zip(*iterables)]

        def shutdown(self, cancel_futures):
            pass

    bounds = EnumerationBounds(3, 12)
    assert en.TASK_PREFIXES < len(list(_prefixes(bounds))) <= 2 * en.TASK_PREFIXES  # two tasks
    serial = sweep(bounds, workers=1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert sweep(bounds, workers=8) == serial
    assert InlinePool.sizes == [2]


@pytest.mark.parametrize("workers", [2, 3])
def test_the_pool_submits_at_most_two_runs_per_worker_ahead(monkeypatch, workers):
    class InlinePool:
        """Runs each task in this process as it is submitted, each on a new table.

        Its workers finish at once, so every write is slow next to them.
        """

        submitted = 0

        def __init__(self, max_workers, **kwargs):
            pass

        def map(self, fn, *iterables):
            results = [fn(*args, {}) for args in zip(*iterables)]
            InlinePool.submitted += len(results)
            return results

        def shutdown(self, cancel_futures):
            pass

    ahead, written = [], []

    def write(rows):
        written.append(rows)
        ahead.append(InlinePool.submitted - len(written))

    bounds = EnumerationBounds(8, 40)
    tasks = -(-len(list(_prefixes(bounds))) // en.TASK_PREFIXES)
    assert tasks > 4 * workers
    serial = sweep(bounds, workers=1)[0]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    assert sweep(bounds, workers=workers, write=write)[0] == []
    assert [row for rows in written for row in rows] == serial
    assert len(ahead) == tasks and max(ahead) == 2 * workers


@forks
def test_check_names_the_first_failing_class_whatever_the_workers(monkeypatch):
    def from_n_5(v):
        return f"n = {v.c.n}" if v.c.n >= 5 else None

    monkeypatch.setattr(sc, "IDENTITIES", [*sc.IDENTITIES, ("from_n_5", from_n_5)])
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 20)  # the scan is not under test
    bounds = EnumerationBounds(8, 40)
    # the failing classes start past the first pool task's prefixes
    assert sum(1 for n, _ in _prefixes(bounds) if n < 5) > en.TASK_PREFIXES
    serial = run_identity_suite(bounds)
    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    assert run_identity_suite(bounds) == serial
    failed = [res for res in serial if not res.passed]
    assert [(res.name, res.detail) for res in failed] == [
        ("from_n_5", "first failure at (5; 6): n = 5")
    ]


@pytest.mark.parametrize("threads", [None, pytest.param("2", marks=forks)])
def test_check_reports_a_failing_resolution_invariance(capsys, monkeypatch, threads):
    real = inv._gap_term

    def broken(p):  # a free point of multiplicity 1 adds 1, so appending changes the sum
        return real(p) + (p.kind is PointKind.FREE and p.multiplicity == 1)

    monkeypatch.setattr(inv, "_gap_term", broken)
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # the scan is not under test
    if threads:
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
    assert main(["check", "--max-mult", "4", "--max-beta", "12"]) == 1
    assert ("FAIL resolution_invariance: first failure at (2; 3): "
            "changed after appending 1 points") in capsys.readouterr().out.splitlines()


def break_gap_term(monkeypatch):
    """A free point of multiplicity 1 adds 1 to the gap count, so appending changes it."""
    real = inv._gap_term
    monkeypatch.setattr(
        inv, "_gap_term", lambda p: real(p) + (p.kind is PointKind.FREE and p.multiplicity == 1)
    )


def break_stage_table(monkeypatch):
    """The stage records' tau- and q_min one too large at n = 5; tau_min's two routes still agree.

    The pass makes each record's sums with inv._run_sums; the suite and
    the reference sum the whole sequence through bindings of their own.
    """
    real = inv._run_sums

    def shifted(runs):
        mu, tau_minus, q_min, *rest = real(runs)
        at_5 = runs[0].kind is PointKind.ORIGIN and runs[0].multiplicity == 5
        return (mu, tau_minus + at_5, q_min + at_5, *rest)

    monkeypatch.setattr(inv, "_run_sums", shifted)


@pytest.mark.parametrize("mutant, first_failure", [
    (None, None),
    (break_gap_term, "(2; 3)"),
    (break_stage_table, "(5; 6)"),
])
def test_resolution_invariance_matches_the_rebuilt_sequences(monkeypatch, mutant, first_failure):
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # the scan is not under test
    if mutant:
        mutant(monkeypatch)
    bounds = EnumerationBounds(8, 40)
    [result] = [r for r in run_identity_suite(bounds) if r.name == "resolution_invariance"]
    assert (result.passed, result.detail) == resolution_invariance_reference(bounds)
    if first_failure:
        assert result.detail == (f"first failure at {first_failure}: "
                                 "changed after appending 1 points")


@pytest.mark.parametrize("threads", [None, pytest.param("2", marks=forks)])
def test_check_reports_stage_sums_that_differ_from_the_whole_sequence(
        capsys, monkeypatch, threads):
    break_stage_table(monkeypatch)
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # the scan is not under test
    if threads:
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
    assert main(["check", "--max-mult", "8", "--max-beta", "40"]) == 1
    assert ("FAIL resolution_invariance: first failure at (5; 6): "
            "changed after appending 1 points") in capsys.readouterr().out.splitlines()


def test_unwritable_out_exits_2_before_any_work(capsys, monkeypatch, tmp_path):
    evaluated = []
    real = en._evaluate
    monkeypatch.setattr(en, "_evaluate", lambda c, t, node=None: evaluated.append(c) or real(c, t, node))
    target = tmp_path / "missing" / "x.csv"
    code = main(["sweep", "--max-mult", "10", "--max-beta", "60", "--format", "csv",
                 "--out", str(target)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(target) in err
    assert evaluated == []


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_failed_write_exits_2(capsys):
    code = main(["sweep", "--max-mult", "4", "--max-beta", "12", "--out", "/dev/full"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def interrupt(c, table, node=None):
    raise KeyboardInterrupt


@pytest.mark.parametrize("command, module, threads", [
    (["sweep", "--format", "csv"], en, None),
    pytest.param(["sweep", "--format", "csv"], en, "2", marks=forks),
    (["check"], sc, None),
    pytest.param(["check"], sc, "2", marks=forks),
])
def test_ctrl_c_exits_130_with_one_line(capsys, monkeypatch, command, module, threads):
    monkeypatch.setattr(module, "_evaluate", interrupt)
    if threads:
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
    assert main([*command, "--max-mult", "8", "--max-beta", "40"]) == 130
    captured = capsys.readouterr()
    assert captured.err == "interrupted\n"
    assert captured.out == ""


def die_at_7_9(c, table, node=None):
    """_evaluate, except that a pool worker meeting (7; 9) ends at once."""
    if (c.n, c.beta) == (7, (9,)) and multiprocessing.parent_process() is not None:
        os._exit(1)
    return inv._evaluate(c, table, node)


@forks
@pytest.mark.parametrize("command, module", [
    (["sweep", "--format", "csv"], en),
    (["check"], sc),
], ids=["sweep", "check"])
def test_a_dead_worker_exits_2_with_one_line(capsys, monkeypatch, command, module):
    monkeypatch.setattr(module, "_evaluate", die_at_7_9)
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # the scan is not under test
    monkeypatch.setenv(THREADS_ENV_VAR, "2")
    assert main([*command, "--max-mult", "8", "--max-beta", "40"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: a pool worker ended abruptly\n"
    # a sweep has written whole rows of the runs before the lost one, check nothing
    if module is en:
        reference = reference_document("csv", EnumerationBounds(8, 40))
        assert reference.startswith(captured.out) and "\n7,7;9," not in captured.out
    else:
        assert captured.out == ""


@pytest.mark.skipif(sys.platform == "win32", reason="no SIGINT to send")
def test_sigint_stops_a_parallel_sweep():
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, THREADS_ENV_VAR: "2", "PYTHONPATH": path}
    proc = subprocess.Popen(
        [sys.executable, "-m", "branch_invariants.cli", "sweep", "--max-mult", "12",
         "--max-beta", "180", "--format", "csv"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    try:
        time.sleep(0.4)  # past start-up, well before the sweep ends
        assert proc.poll() is None, "the sweep ended before it could be interrupted"
        proc.send_signal(signal.SIGINT)
        start = time.monotonic()
        _, err = proc.communicate(timeout=5)
        assert time.monotonic() - start < 5
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 130
    assert err == "interrupted\n"
