"""Enumeration of equisingularity classes and identity sweeps.

Classes are generated in lexicographic order of (n, beta_1, ..., beta_g)
by extending partial exponent tuples while the gcd chain stays above 1.
A sweep evaluates each class in range once and runs every identity of
invariants.IDENTITIES on it; a class that fails an identity or raises
InternalInvariantViolation is recorded as failed, with the reason,
rather than aborting the sweep.  An input or limit error, such as a
membership sieve above SIEVE_LIMIT, aborts it.

Parallel evaluation is opt-in through the environment variable
BRANCH_INVARIANTS_THREADS (a positive integer capping worker count);
the pool hands results back in input order, so output is byte-identical
with and without workers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator

from .combinatorics import CharacteristicExponents, SemigroupGenerators
from .errors import DomainError, InternalInvariantViolation
from .invariants import InvariantReport, _checked_report, _evaluate

THREADS_ENV_VAR = "BRANCH_INVARIANTS_THREADS"

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
    pairs.
    """

    max_multiplicity: int
    max_beta: int
    max_pairs: int | None = None

    def __post_init__(self) -> None:
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


def enumerate_classes(bounds: EnumerationBounds) -> Iterator[CharacteristicExponents]:
    """All admissible classes inside bounds, in lexicographic order."""

    def extend(n: int, prefix: tuple[int, ...], e: int):
        start = (prefix[-1] if prefix else n) + 1
        for b in range(start, bounds.max_beta + 1):
            if b % e == 0:
                continue
            e_next = math.gcd(e, b)
            grown = prefix + (b,)
            if e_next == 1:
                yield CharacteristicExponents(n, grown)
            elif bounds.max_pairs is None or len(grown) < bounds.max_pairs:
                yield from extend(n, grown, e_next)

    for n in range(2, bounds.max_multiplicity + 1):
        yield from extend(n, (), n)


@dataclass(frozen=True)
class SweepRecord:
    """One class of a sweep: its encodings, report, and check outcomes.

    checks maps check names to booleans, all True when every IDENTITIES
    row held.  Otherwise report is None, every check False, and error
    holds the message naming the first failing identity.
    """

    char_exponents: CharacteristicExponents
    semigroup: SemigroupGenerators | None
    report: InvariantReport | None
    checks: dict[str, bool] = field(default_factory=dict)
    error: str | None = None

    @property
    def passed(self) -> bool:
        return self.error is None and all(self.checks.values())


def evaluate_class(c: CharacteristicExponents) -> SweepRecord:
    """Report and identity checks for one class, from one evaluation pass.

    A ValidationError or OverflowLimitError propagates: it is not a failed
    identity, and the command line maps it to exit 2.
    """
    names = CHECK_NAMES + (ONE_PAIR_CHECK,) if c.g == 1 else CHECK_NAMES
    try:
        v = _evaluate(c)
        r = _checked_report(v)
    except InternalInvariantViolation as exc:
        checks = dict.fromkeys(names, False)
        return SweepRecord(c, None, None, checks, f"{type(exc).__name__}: {exc}")
    return SweepRecord(c, v.s, r, dict.fromkeys(names, True))


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
                f"{THREADS_ENV_VAR} must be a positive integer, got {raw!r}"
            ) from None
    if requested < 1:
        raise DomainError(f"{THREADS_ENV_VAR} must be positive, got {requested}")
    return min(requested, os.cpu_count() or 1)


def sweep(
    bounds: EnumerationBounds, workers: int | None = None
) -> tuple[list[SweepRecord], SweepSummary]:
    """Evaluate every class in bounds, in enumeration order.

    workers defaults to the BRANCH_INVARIANTS_THREADS environment
    variable (serial when unset).  The pool returns results in input
    order, so worker count never changes the output.
    """
    classes = list(enumerate_classes(bounds))
    count = _worker_count(workers)
    if count > 1 and len(classes) > 1:
        with ProcessPoolExecutor(max_workers=count) as pool:
            records = list(pool.map(evaluate_class, classes, chunksize=64))
    else:
        records = [evaluate_class(c) for c in classes]
    max_q = Fraction(0)
    failed = 0
    for rec in records:
        if not rec.passed:
            failed += 1
        if rec.report is not None:
            q = Fraction(rec.report.quotient_num, rec.report.quotient_den)
            max_q = max(max_q, q)
    return records, SweepSummary(len(records), max_q, failed)
