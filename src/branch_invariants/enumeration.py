"""Enumeration of equisingularity classes and identity sweeps.

Classes are generated in lexicographic order of (n, beta_1, ..., beta_g):
each prefix (n, beta_1) with n not dividing beta_1 roots a subtree that
one recursive _extend grows while the gcd chain stays above 1, and
enumerate_classes chains the subtrees.
A sweep evaluates each class in range once and runs every identity of
invariants.IDENTITIES on it; a class that fails an identity or raises
InternalInvariantViolation is recorded as failed, with the reason,
rather than aborting the sweep.  An input or limit error, such as a
membership sieve above SIEVE_LIMIT, aborts it.

Parallel evaluation is opt-in through the environment variable
BRANCH_INVARIANTS_THREADS (a positive integer capping worker count).
The box is walked in runs of TASK_PREFIXES consecutive prefixes, and
_walk yields each run's result in prefix order, which is enumeration
order: serially on one table, or with workers that walk their runs
themselves and send back only rows and counts, or first failures.  So
output is byte-identical with and without workers, and a caller that
writes each run as it arrives holds one run's rows at a time, with at
most two runs per worker submitted ahead of it.  Tasks are cut from the
prefixes as the walk reaches them, so no box is listed up front: the
walk reads at most one task per worker ahead to choose serial or pool
and the pool's size, and that worker count alone bounds how far it reads
ahead.  A box of one task runs serially whatever the worker count, at
most one worker starts per task, and the pool's modules load on the
first parallel walk, not on import.
"""

from __future__ import annotations

import math
import os
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain, islice, starmap
from typing import Any, Callable, Iterable, Iterator

from .combinatorics import CharacteristicExponents, SemigroupGenerators
from .errors import DomainError, InternalInvariantViolation, check_int64, echo, echo_plain
from .invariants import InvariantReport, _checked_report, _evaluate

THREADS_ENV_VAR = "BRANCH_INVARIANTS_THREADS"
# prefixes per pool task: a worker's table outlives its tasks, so small
# tasks cost only their round trips, and the workers finish together
TASK_PREFIXES = 8

# each sweep check and the IDENTITIES row it reports
_CHECK_ROWS = {
    "satellite_sum": "multiplicity_satellite_sum",
    "enriques_free": "multiplicity_free_sum",
    "enriques_total": "multiplicity_total_sum",
    "dimca_greuel": "dimca_greuel_margin",
    "lower_bound": "tau_min_lower_bound",
    "peraire": "gap_count_double_computation",
}
CHECK_NAMES = tuple(_CHECK_ROWS)
ONE_PAIR_CHECK = "zariski_one_pair"  # the row of the same name


@dataclass(frozen=True)
class EnumerationBounds:
    """Search box for class enumeration.

    max_multiplicity bounds n, max_beta bounds the largest exponent, and
    max_pairs (None for unbounded) bounds the number of characteristic
    pairs.  Each must be exactly int (not a bool or numpy integer) in signed
    64 bits, by check_int64; a box inside that range is not bounded further,
    and may take long to sweep.
    """

    max_multiplicity: int
    max_beta: int
    max_pairs: int | None = None

    def __post_init__(self) -> None:
        check_int64(self.max_multiplicity, self.max_beta,
                    0 if self.max_pairs is None else self.max_pairs)
        if self.max_multiplicity < 2:
            raise DomainError(
                f"max multiplicity must be at least 2, got {self.max_multiplicity}"
            )
        if self.max_beta <= self.max_multiplicity:
            raise DomainError(
                f"max exponent {self.max_beta} must exceed "
                f"max multiplicity {self.max_multiplicity}"
            )
        if self.max_pairs is not None and self.max_pairs < 1:
            raise DomainError(f"max pairs must be positive, got {self.max_pairs}")


def _prefixes(bounds: EnumerationBounds) -> Iterator[tuple[int, int]]:
    """Every (n, beta_1) that roots a subtree of classes, in lexicographic order."""
    for n in range(2, bounds.max_multiplicity + 1):
        for b in range(n + 1, bounds.max_beta + 1):
            if b % n:
                yield n, b


def _extend(
    bounds: EnumerationBounds, n: int, beta: tuple[int, ...], e: int
) -> Iterator[CharacteristicExponents]:
    """The classes of multiplicity n whose exponents begin with beta (gcd chain at e > 1).

    A class is yielded from its parent's loop, so a leaf opens no generator.
    """
    if bounds.max_pairs is None or len(beta) < bounds.max_pairs:
        for b in range(beta[-1] + 1, bounds.max_beta + 1):
            if b % e:
                e_next = math.gcd(e, b)
                if e_next == 1:
                    yield CharacteristicExponents(n, beta + (b,))
                else:
                    yield from _extend(bounds, n, beta + (b,), e_next)


def _subtree(bounds: EnumerationBounds, n: int, b: int) -> Iterable[CharacteristicExponents]:
    """The classes under the prefix (n, b): the class (n; b) itself when gcd(n, b) = 1."""
    e = math.gcd(n, b)
    return (CharacteristicExponents(n, (b,)),) if e == 1 else _extend(bounds, n, (b,), e)


def _subtrees(bounds: EnumerationBounds, prefixes: Iterable) -> Iterator:
    """The classes under each (n, beta_1) of prefixes, prefix by prefix."""
    return chain.from_iterable(starmap(partial(_subtree, bounds), prefixes))


def enumerate_classes(bounds: EnumerationBounds) -> Iterator[CharacteristicExponents]:
    """All admissible classes inside bounds, in lexicographic order."""
    return _subtrees(bounds, _prefixes(bounds))


@dataclass(frozen=True)
class SweepRecord:
    """One class of a sweep: its encodings, report, and outcome (error, or None).

    A failed class has no report, and error names its first failing identity.
    checks is derived: each check name (one more when g = 1) maps to passed.
    """

    char_exponents: CharacteristicExponents
    semigroup: SemigroupGenerators | None
    report: InvariantReport | None
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None

    @property
    def checks(self) -> dict[str, bool]:
        names = CHECK_NAMES + (ONE_PAIR_CHECK,) if self.char_exponents.g == 1 else CHECK_NAMES
        return dict.fromkeys(names, self.passed)


def _evaluate_record(c: CharacteristicExponents, table: dict) -> SweepRecord:
    """The record of c; a passed one is SweepRecord(c, s, report), its fields set in one update."""
    try:
        v = _evaluate(c, table)
        report = _checked_report(v)
    except InternalInvariantViolation as exc:
        return SweepRecord(c, None, None, f"{type(exc).__name__}: {exc}")
    rec = object.__new__(SweepRecord)
    rec.__dict__.update(char_exponents=c, semigroup=v.s, report=report, error=None)
    return rec


def evaluate_class(c: CharacteristicExponents) -> SweepRecord:
    """Report and identity checks for one class, from one evaluation pass.

    A ValidationError or OverflowLimitError propagates: it is not a failed
    identity, and the command line maps it to exit 2.
    """
    return _evaluate_record(c, {})


@dataclass(frozen=True)
class SweepSummary:
    classes: int
    max_quotient: Fraction
    failed: int


def _worker_count(requested: int | None = None) -> int:
    if requested is None:
        raw = os.environ.get(THREADS_ENV_VAR)
        if raw is None:
            return 1
        try:
            requested = int(raw)
        except ValueError:
            raise DomainError(
                f"{THREADS_ENV_VAR} must be a positive integer, got {echo(raw)}"
            ) from None
    else:
        check_int64(requested)
    if requested < 1:
        raise DomainError(f"{THREADS_ENV_VAR} must be positive, got {echo_plain(requested)}")
    return min(requested, os.cpu_count() or 1)


_worker_table: dict = {}  # a pool worker's stage table for the pool's life; empty in the parent


def _run_prefixes(run, bounds, prefixes, table: dict = _worker_table):
    """run(classes, table) on the classes under prefixes; pool tasks use the worker's table."""
    return run(_subtrees(bounds, prefixes), table)


def _walk(bounds: EnumerationBounds, run: Callable, workers: int | None) -> Iterator:
    """run(classes, table) on each run of TASK_PREFIXES prefixes of bounds, yielded in prefix order.

    Runs are cut from the prefixes as the walk reaches them.  The first
    worker-count runs alone decide: one run goes serially, two or more
    start a pool of one worker per run read.  Serially: the runs in turn,
    on one new table.  In the pool: each run a task, on its worker's
    table, with at most two tasks per worker submitted ahead of the run
    the caller holds, so a slow caller does not pile up finished runs.
    Callers close the generator when they stop early: an error or Ctrl-C
    cancels the tasks not started.  A worker that dies raises
    ChildProcessError, an OSError, so the command line exits 2.
    """
    count = _worker_count(workers)
    prefixes = _prefixes(bounds)
    tasks = iter(lambda: list(islice(prefixes, TASK_PREFIXES)), [])
    first = list(islice(tasks, count))  # all the walk reads ahead to choose
    if len(first) > 1:
        import signal  # the pool's modules load here: a serial command imports none
        from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
        size = len(first)
        # Ctrl-C is the parent's to handle
        pool = ProcessPoolExecutor(size, initializer=signal.signal,
                                   initargs=(signal.SIGINT, signal.SIG_IGN))
        try:
            ahead: deque = deque()  # one map per task: each holds its one result
            for task in chain(first, tasks):
                ahead.append(pool.map(_run_prefixes, (run,), (bounds,), (task,)))
                if len(ahead) > 2 * size:
                    yield from ahead.popleft()
            while ahead:
                yield from ahead.popleft()
        except BrokenExecutor as exc:  # a worker died, and its run with it
            raise ChildProcessError("a pool worker ended abruptly") from exc
        finally:
            pool.shutdown(cancel_futures=True)
    else:
        yield from map(partial(_run_prefixes, run, bounds, table={}), chain(first, tasks))


def _sweep_run(classes, table: dict, render) -> tuple:
    """Rows, failed count and largest quotient (reduced: cross-multiplying compares) of classes."""
    rows, failed, num, den = [], 0, 0, 1
    for c in classes:
        rec = _evaluate_record(c, table)
        if rec.error is not None:  # not rec.passed, without the property's call
            failed += 1
        r = rec.report
        if r is not None and r.quotient_num * den > num * r.quotient_den:
            num, den = r.quotient_num, r.quotient_den
        rows.append(rec if render is None else render(rec))
    return rows, failed, Fraction(num, den)


def sweep(
    bounds: EnumerationBounds,
    workers: int | None = None,
    render: Callable[[SweepRecord], Any] | None = None,
    write: Callable[[list], Any] | None = None,
) -> tuple[list, SweepSummary]:
    """render(record) for each class in bounds, in enumeration order, and the summary.

    render defaults to returning the record.  workers defaults to the
    BRANCH_INVARIANTS_THREADS environment variable (serial when unset).
    Pool workers render the rows of their runs, and the runs come back in
    order, so worker count never changes the output.  With write, each
    run's rows go to write(rows) as the run arrives, in enumeration order
    (a run may hold none), and the returned row list is empty.
    """
    rows: list = []
    write = rows.extend if write is None else write
    classes = failed = 0
    best = Fraction(0)
    with closing(_walk(bounds, partial(_sweep_run, render=render), workers)) as runs:
        for run_rows, run_failed, q in runs:
            classes += len(run_rows)
            failed += run_failed
            best = max(best, q)
            write(run_rows)
    return rows, SweepSummary(classes, best, failed)
