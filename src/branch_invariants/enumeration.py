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
# a few shards per worker, so a slow shard leaves the others work to share
SHARDS_PER_WORKER = 4

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


def _evaluate_shard(classes: list[CharacteristicExponents]) -> list[SweepRecord]:
    """evaluate_class of each class in order, with one stage table for them all."""
    table: dict = {}
    records = []
    for c in classes:
        names = CHECK_NAMES + (ONE_PAIR_CHECK,) if c.g == 1 else CHECK_NAMES
        try:
            v = _evaluate(c, table)
            r = _checked_report(v)
        except InternalInvariantViolation as exc:
            error = f"{type(exc).__name__}: {exc}"
            records.append(SweepRecord(c, None, None, dict.fromkeys(names, False), error))
        else:
            records.append(SweepRecord(c, v.s, r, dict.fromkeys(names, True)))
    return records


def evaluate_class(c: CharacteristicExponents) -> SweepRecord:
    """Report and identity checks for one class, from one evaluation pass.

    A ValidationError or OverflowLimitError propagates: it is not a failed
    identity, and the command line maps it to exit 2.
    """
    return _evaluate_shard([c])[0]


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
    variable (serial when unset).  The pool evaluates SHARDS_PER_WORKER
    contiguous shards per worker, one stage table each, and joins them in
    order, so worker count never changes the output.
    """
    classes = list(enumerate_classes(bounds))
    count = _worker_count(workers)
    if count > 1 and len(classes) > 1:
        size = -(-len(classes) // (SHARDS_PER_WORKER * count))
        shards = [classes[i:i + size] for i in range(0, len(classes), size)]
        with ProcessPoolExecutor(max_workers=count) as pool:
            records = [rec for shard in pool.map(_evaluate_shard, shards) for rec in shard]
    else:
        records = _evaluate_shard(classes)
    # the quotients are reduced, so the largest is found by cross-multiplying
    num, den, failed = 0, 1, 0
    for rec in records:
        if not rec.passed:
            failed += 1
        r = rec.report
        if r is not None and r.quotient_num * den > num * r.quotient_den:
            num, den = r.quotient_num, r.quotient_den
    return records, SweepSummary(len(records), Fraction(num, den), failed)
