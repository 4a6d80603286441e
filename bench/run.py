"""Benchmark of branch-invariants, end to end and per layer.

    python3 bench/run.py --workload box-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                # every workload, one after another

Each run drives the package only through ``branch_invariants.cli.main``
and its public functions, from the source tree next to this directory.
It prints the seed and the run environment, one line per metric with
its unit, and as its last line a JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  It exits 1 when an output
check failed and 2 when the package cannot be found.

With ``--trace 0`` the run is a closed loop of passes over the
workload's operations for ``--seconds`` and reports the end-to-end
metrics.  With ``--trace 1`` it does a fixed amount of work: one pass
through the command line with spans around it and around the call the
command wraps, then each layer's public functions on the same inputs,
and reports per-layer metrics.  Spans are written to ``.bench_out/``.
See README.md in this directory for every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import workloads as wl
from measure import Tracer, environment, min_samples, nearest_rank, peak_rss_mb, samples_beyond

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

DEFAULT_SECONDS = 40
MIN_PASSES = 3
# set-up interpreters timed before the first pass and after each pass
SETUP_AT_START = 3
SETUP_PER_PASS = 2
SETUP_TIMEOUT_S = 120
TAIL_QUANTILE = 0.9
# traced runs: classes sampled from the box for the layer probes, every
# k-th tall query, and box classes for the pool's serial baseline when
# the layer probes do not come from the box
LAYER_SAMPLE = 1500
TALL_TRACE_STRIDE = 6
POOL_BASELINE_SAMPLE = 300
THREADS_ENV_VAR = "BRANCH_INVARIANTS_THREADS"

END_TO_END = {
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# printed with the metrics but left out of the JSON line: the latencies
# are a tail estimate only on tall-classes, and fail_ratio is 0 when the
# outputs are correct, so neither can carry a relative bound
PRINTED_ONLY = {
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "fail_ratio": "ratio",
}

# invariants probed on each class's multiplicity sequence
INVARIANT_PROBES = (
    "milnor_number",
    "mu_constant_stratum_dim",
    "generic_component_dim",
    "minimal_tjurina",
    "differential_gap_count",
)
# evaluate_class against one call each of the pieces it needs
REDUNDANCY_BASE = (
    "combinatorics.semigroup",
    "combinatorics.gap_count",
    "resolution.multiplicity_sequence",
    "invariants.mu_constant_stratum_dim",
    "invariants.generic_component_dim",
    "invariants.differential_gap_count",
)
TIMED_PROBES = (
    "combinatorics.semigroup",
    "combinatorics.conductor",
    "combinatorics.gap_count",
    "resolution.multiplicity_sequence",
    "invariants.milnor_number",
    "invariants.minimal_tjurina",
    "invariants.differential_gap_count",
    "invariants.full_report",
    "enumeration.evaluate_class",
)
PER_LAYER = {
    **{f"{name}.{kind}": unit for name in TIMED_PROBES
       for kind, unit in (("us_per_call", "us"), ("calls", "count"))},
    "combinatorics.sieve_cells": "cells",
    "resolution.points": "count",
    "enumeration.enumerate_classes.us_per_class": "us",
    "enumeration.enumerate_classes.calls": "count",
    "enumeration.evaluate_class.redundancy_ratio": "ratio",
    "enumeration.pool.overhead_ratio": "ratio",
    "enumeration.pool.calls": "count",
    "selfcheck.run_identity_suite.busy_s": "s",
    "selfcheck.run_identity_suite.calls": "count",
    "selfcheck.fixed_cost_s": "s",
    "cli.main.busy_s": "s",
    "cli.main.calls": "count",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}
# the calls cli.main wraps; spans around them are cli.main's children
CLI_WRAPPED = {
    "sweep": "enumeration.sweep",
    "full_report": "invariants.full_report",
    "run_identity_suite": "selfcheck.run_identity_suite",
}


@dataclass
class Op:
    """One call of cli.main and how to check what it produced."""

    argv: list[str]
    units: int  # classes the call evaluates, or 1 for a query
    check: Callable[[int, str, str], list[str]]  # (exit, stdout, stderr) -> problems
    out_file: Path | None = None


@dataclass
class Outcome:
    seconds: float
    problems: list[str]
    output_bytes: int


def make_ops(workload: str, seed: int, tmp: Path) -> list[Op]:
    csv_path = tmp / "records.csv"
    argvs = wl.build_inputs(workload, seed, str(csv_path))
    if workload in ("box-sweep", "box-sweep-par"):
        expected = json.loads((BENCH / "expected.json").read_text())["box-sweep"]

        def check_sweep(code: int, stdout: str, stderr: str) -> list[str]:
            if not csv_path.exists():
                return [f"sweep wrote no {csv_path.name}"]
            return checks.sweep_problems(code, csv_path.read_bytes(), stderr, expected)

        return [Op(argvs[0], wl.SWEEP_CLASSES, check_sweep, csv_path)]
    if workload == "check-suite":
        return [Op(argvs[0], wl.CHECK_CLASSES,
                   lambda code, stdout, stderr: checks.check_suite_problems(code, stdout))]
    return [
        Op(argv, 1, lambda code, stdout, stderr, q=q: checks.report_problems(*q, code, stdout))
        for q, argv in zip(wl.tall_queries(seed), argvs)
    ]


def run_op(cli, op: Op, tracer: Tracer | None = None) -> Outcome:
    """Call cli.main(op.argv) with its output captured; time only the call."""
    if op.out_file is not None:
        op.out_file.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
        raised = []
        start = time.perf_counter()
        try:
            code = cli.main(op.argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            code = exc.code
        except Exception as exc:  # a raising call is a failed operation
            code = -1
            raised.append(f"raised {type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    stdout = out.getvalue()
    problems = raised + op.check(code, stdout, err.getvalue())
    size = len(stdout.encode())
    if op.out_file is not None and op.out_file.exists():
        size += op.out_file.stat().st_size
    return Outcome(seconds, problems, size)


@contextlib.contextmanager
def worker_env(workload: str):
    """Two pool workers for box-sweep-par; serial for every other workload."""
    saved = os.environ.pop(THREADS_ENV_VAR, None)
    if wl.workers_of(workload) > 1:
        os.environ[THREADS_ENV_VAR] = str(wl.workers_of(workload))
    try:
        yield
    finally:
        os.environ.pop(THREADS_ENV_VAR, None)
        if saved is not None:
            os.environ[THREADS_ENV_VAR] = saved


@contextlib.contextmanager
def scratch_dir():
    OUT.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class SetupTimer:
    """Wall times of fresh interpreters that import the CLI and build inputs.

    The run takes a few samples before its first pass and a few after
    every pass, so the reported median covers the whole run rather than
    one moment of it.  One extra interpreter runs first and is not
    counted, so byte-code compilation of a fresh checkout does not land
    in the figure.  The wait blocks instead of passing a timeout to
    subprocess, whose timed wait polls in steps of up to 50 ms; a timer
    kills a hung child.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.code = (
            f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import branch_invariants.cli, workloads; "
            f"workloads.build_inputs({workload!r}, {seed})"
        )
        self.times: list[float] = []
        self._one()
        self.times.clear()

    def _one(self) -> None:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", self.code], cwd=ROOT,
                                stdout=subprocess.DEVNULL)
        killer = threading.Timer(SETUP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            returncode = proc.wait()
        finally:
            killer.cancel()
        self.times.append(time.perf_counter() - start)
        if returncode != 0:
            raise RuntimeError(f"set-up interpreter exited {returncode}")

    def sample(self, count: int) -> None:
        for _ in range(count):
            self._one()

    def median(self) -> float:
        return statistics.median(self.times)


def warm_up(cli, workload: str, ops: list[Op], tmp: Path) -> None:
    """Run a small instance of the workload's command once, unmeasured."""
    if workload == "tall-classes":
        warm = ops[:2]
    elif workload == "check-suite":
        warm = [Op(["check", "--max-mult", "4", "--max-beta", "10"], 1, lambda *a: [])]
    else:
        warm = [Op(["sweep", "--max-mult", "6", "--max-beta", "30", "--format", "csv",
                    "--out", str(tmp / "warm.csv")], 1, lambda *a: [])]
    for op in warm:
        run_op(cli, op)


class Tally:
    """Operations attempted and failed in a run."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0

    def add(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems[:3]), file=sys.stderr)


def run_plain(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    import branch_invariants.cli as cli

    setup = SetupTimer(workload, seed)
    setup.sample(SETUP_AT_START)
    latencies = []
    passes = 0
    tally = Tally()
    needed = min_samples(TAIL_QUANTILE) if workload == "tall-classes" else 0
    with scratch_dir() as tmp, worker_env(workload):
        ops = make_ops(workload, seed, tmp)
        warm_up(cli, workload, ops, tmp)
        start = time.perf_counter()
        last_pass = 0.0
        # stop at the pass end nearest to `seconds`, so a run of long
        # passes neither overshoots by a whole pass nor stops well short
        while (passes < MIN_PASSES or len(latencies) < needed
               or time.perf_counter() - start + last_pass / 2 < seconds):
            pass_start = time.perf_counter()
            for op in ops:
                outcome = run_op(cli, op)
                latencies.append(outcome.seconds)
                tally.add(" ".join(op.argv), outcome.problems)
            passes += 1
            last_pass = time.perf_counter() - pass_start
            setup.sample(SETUP_PER_PASS)
    metrics = {
        "ops_per_s": passes * sum(op.units for op in ops) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": nearest_rank(latencies, TAIL_QUANTILE) * 1e3,
        "peak_rss_mb": peak_rss_mb(with_children=wl.workers_of(workload) > 1),
        "setup_s": setup.median(),
    }
    notes = [
        f"passes {passes}, latency samples {len(latencies)}, "
        f"{samples_beyond(len(latencies), TAIL_QUANTILE)} beyond p90, "
        f"set-up samples {len(setup.times)}",
    ]
    return metrics, tally, notes


@contextlib.contextmanager
def wrapped_cli(cli, tracer: Tracer):
    """Put spans around the calls cli.main makes into the layer it wraps."""
    saved = {attr: getattr(cli, attr) for attr in CLI_WRAPPED}
    for attr, name in CLI_WRAPPED.items():
        setattr(cli, attr, tracer.wrap(name, saved[attr]))
    try:
        yield
    finally:
        for attr, fn in saved.items():
            setattr(cli, attr, fn)


def probe_class(bi, tracer: Tracer, c) -> tuple[int, int, list[str]]:
    """Each layer's public function once on c; returns sieve cells and points."""
    s = tracer.call("combinatorics.semigroup", bi.semigroup_from_char_exponents, c)
    cond = tracer.call("combinatorics.conductor", bi.conductor, s)
    tracer.call("combinatorics.gap_count", bi.gap_count, s)
    m = tracer.call("resolution.multiplicity_sequence", bi.multiplicity_sequence, c)
    for fn in INVARIANT_PROBES:
        tracer.call(f"invariants.{fn}", getattr(bi, fn), m)
    tracer.call("invariants.full_report", bi.full_report, c)
    rec = tracer.call("enumeration.evaluate_class", bi.evaluate_class, c)
    problems = [] if rec.passed else [f"evaluate_class failed: {rec.checks} {rec.error}"]
    return len(s.gens) * (cond + s.n), len(m.points), problems


def run_traced(workload: str, seed: int) -> tuple[dict, Tally, list[str]]:
    import branch_invariants as bi
    import branch_invariants.cli as cli

    tracer = Tracer()
    tally = Tally()
    bounds = bi.EnumerationBounds(*wl.box_of(workload))
    workers = wl.workers_of(workload)
    with scratch_dir() as tmp, worker_env(workload):
        ops = make_ops(workload, seed, tmp)
        if workload == "tall-classes":
            ops = ops[::TALL_TRACE_STRIDE]

        # cli: one pass untraced, then one with spans, on the same inputs
        warm_up(cli, workload, ops, tmp)
        untraced = 0.0
        for op in ops:
            outcome = run_op(cli, op)
            untraced += outcome.seconds
            tally.add(" ".join(op.argv), outcome.problems)
        traced, output_bytes = 0.0, 0
        with wrapped_cli(cli, tracer):
            for i, op in enumerate(ops):
                tracer.request = f"cli:{i}"
                outcome = run_op(cli, op, tracer)
                traced += outcome.seconds
                output_bytes += outcome.output_bytes
                tally.add(" ".join(op.argv), outcome.problems)

        tracer.request = "box"
        classes = tracer.call("enumeration.enumerate_classes",
                              lambda b: list(bi.enumerate_classes(b)), bounds)
        if workload == "tall-classes":
            probe_classes = [bi.CharacteristicExponents(n, beta)
                             for n, beta in wl.tall_queries(seed)[::TALL_TRACE_STRIDE]]
        else:
            picked = random.Random(seed).sample(range(len(classes)), min(LAYER_SAMPLE, len(classes)))
            probe_classes = [classes[i] for i in sorted(picked)]

        cells = points = 0
        for i, c in enumerate(probe_classes):
            tracer.request = f"layers:{i}"
            try:
                c_cells, c_points, problems = probe_class(bi, tracer, c)
            except bi.BranchInvariantError as exc:
                c_cells = c_points = 0
                problems = [f"{type(exc).__name__}: {exc}"]
            cells += c_cells
            points += c_points
            tally.add(f"layers {c}", problems)

        # pool: sweep wall time against the serial evaluate_class time of the box
        if tracer.select("enumeration.sweep", "cli"):
            sweeps, sweep_s = tracer.busy("enumeration.sweep", "cli")
        else:
            tracer.request = "pool"
            _, summary = tracer.call("enumeration.sweep", bi.sweep, bounds, workers)
            tally.add(f"sweep {bounds}", [f"{summary.failed} failed"] if summary.failed else [])
            sweeps, sweep_s = tracer.busy("enumeration.sweep", "pool")
        eval_phase = "layers"
        if workload == "tall-classes":
            eval_phase = "pool"
            picked = random.Random(seed).sample(range(len(classes)), POOL_BASELINE_SAMPLE)
            for i in sorted(picked):
                tracer.request = f"pool:{i}"
                rec = tracer.call("enumeration.evaluate_class", bi.evaluate_class, classes[i])
                tally.add(f"evaluate_class {classes[i]}", [] if rec.passed else ["failed"])
        evals, eval_s = tracer.busy("enumeration.evaluate_class", eval_phase)
        serial_box_s = len(classes) * eval_s / evals

        tracer.request = "selfcheck"
        for name, box in (("selfcheck.fixed_cost", wl.FIXED_COST_BOX),
                          ("selfcheck.run_identity_suite", wl.CHECK_BOX)):
            results = tracer.call(name, bi.run_identity_suite, bi.EnumerationBounds(*box))
            tally.add(f"{name} {box}", [r.name for r in results if not r.passed])

    metrics = {}
    for name in TIMED_PROBES:
        calls, busy = tracer.busy(name, "layers")
        metrics[f"{name}.us_per_call"] = busy / calls * 1e6
        metrics[f"{name}.calls"] = calls
    metrics["combinatorics.sieve_cells"] = cells
    metrics["resolution.points"] = points
    calls, busy = tracer.busy("enumeration.enumerate_classes", "box")
    metrics["enumeration.enumerate_classes.us_per_class"] = busy / len(classes) * 1e6
    metrics["enumeration.enumerate_classes.calls"] = calls
    metrics["enumeration.evaluate_class.redundancy_ratio"] = (
        tracer.busy("enumeration.evaluate_class", "layers")[1]
        / sum(tracer.busy(name, "layers")[1] for name in REDUNDANCY_BASE)
    )
    metrics["enumeration.pool.overhead_ratio"] = workers * (sweep_s / sweeps) / serial_box_s
    metrics["enumeration.pool.calls"] = sweeps
    calls, busy = tracer.busy("selfcheck.run_identity_suite", "selfcheck")
    metrics["selfcheck.run_identity_suite.busy_s"] = busy
    metrics["selfcheck.run_identity_suite.calls"] = calls
    metrics["selfcheck.fixed_cost_s"] = tracer.busy("selfcheck.fixed_cost", "selfcheck")[1]
    calls, busy = tracer.busy("cli.main", "cli")
    metrics["cli.main.busy_s"] = busy
    metrics["cli.main.calls"] = calls
    metrics["cli.self_s"] = tracer.self_time("cli.main", "cli")
    metrics["cli.output_bytes"] = output_bytes
    metrics["trace.overhead_ratio"] = traced / untraced

    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(str(trace_path), {"workload": workload, "seed": seed,
                                   "env": environment(str(ROOT))})
    notes = [
        f"layer probes on {len(probe_classes)} classes; pool baseline "
        f"{len(classes)} box classes x {eval_s / evals * 1e6:.1f} us",
        f"spans {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}",
    ]
    return metrics, tally, notes


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    print(f"# workload {workload}  seed {seed}  seconds {seconds}  trace {int(trace)}")
    print(f"# env {json.dumps(environment(str(ROOT)))}")
    sys.stdout.flush()
    if trace:
        metrics, tally, notes = run_traced(workload, seed)
        units = PER_LAYER
    else:
        metrics, tally, notes = run_plain(workload, seed, seconds)
        units = END_TO_END
    metrics["fail_ratio"] = tally.failed / tally.attempted
    for note in notes:
        print(f"# {note}")
    for name, unit in {**units, **PRINTED_ONLY}.items():
        if name in metrics:
            print(f"{name:<46} {metrics[name]:>16.6f} {unit}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own interpreter, then one table of all metrics."""
    results, table = {}, []
    worst = 0
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=1800,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode in (0, 1) and lines:
            results[workload] = json.loads(lines[-1])
            table += [f"{workload:<14} {line}" for line in lines[:-1] if not line.startswith("#")]
    print("# summary")
    print("\n".join(table))
    print(json.dumps({
        "correct": worst == 0 and len(results) == len(wl.WORKLOADS),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}:{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return worst


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "branch_invariants" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'branch_invariants'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
