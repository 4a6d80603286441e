"""Multiplicity sequences of the minimal embedded resolution.

The points infinitely near the origin that a branch passes through are
produced stage by stage, one stage per characteristic pair, by running
the Euclidean algorithm on the pair's exponent data: stage 1 on
(beta_1, n), stage i >= 2 on (beta_i - beta_{i-1}, e_{i-1}).  Each
division step a = q b + r emits the divisor b as a multiplicity q times.

A point is free when it lies on exactly one exceptional component,
satellite when it lies on two.  A stage's first division step
a = q b + r fixes the split in closed form (Casas-Alvero, Singularities
of Plane Curves, on Enriques diagrams): its q points of multiplicity b
are free (past the origin in stage 1), the next point, of multiplicity
r, is the last free one, and every later point is a satellite.  So the
free points of stage i sum to beta_i - beta_{i-1}, with beta_0 = n, and
three sum identities check the result:

    multiplicity_total_sum       sum of all multiplicities = beta_g + n - 1
    multiplicity_free_sum        n + sum over free points  = beta_g
    multiplicity_satellite_sum   sum over satellite points = n - 1

These are SEQUENCE_IDENTITIES, the sequence rows of invariants.IDENTITIES;
multiplicity_sequence runs them before it returns a sequence.  They read
sums taken in the pass that canonicalises the runs (added up from the
stage records for a joined sequence), each checked to 64 bits when read.

Run-length representation.  A sequence is stored as runs
(multiplicity, count, kind, stage) of equal consecutive points, one per
division step: the free/satellite split of a stage cuts at most one
run, and the origin splits off the first run.  Adjacent runs with equal
multiplicity, kind and stage are always merged and empty runs dropped,
so two sequences are equal exactly when their point lists are.  A class
therefore costs O(g log beta_g) however many points it has; `points`
expands the runs on demand into runs of count 1, up to the same cap as
the membership sieve, and MultiplicitySequence(m.points) == m.

Stage table.  Stage i depends only on its key (a, b, i): (beta_1, n, 1),
then (beta_i - beta_{i-1}, e_{i-1}, i), which CharacteristicExponents
keeps from validation.  A table holds one record per key, built when the
key is first met: the stage's runs from _mark_stage, checked and merged
as a MultiplicitySequence's are (an origin only as the first run of
stage 1), their three sums, and the per-point sums of invariants once
asked for.  _build_sequence joins a class's records by concatenating
runs and adding sums, with no second canonical pass: runs of two stages
differ in stage, so none merge.  The evaluation pass also keeps there the
lower bound of each multiplicity n, under the int key n.  The table
lives for one call of its maker: multiplicity_sequence, full_report, a
sweep or worker shard, or an identity suite.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import add
from types import SimpleNamespace
from typing import NamedTuple

from .combinatorics import SIEVE_LIMIT, CharacteristicExponents
from .errors import (
    INT64_MAX,
    INT64_MIN,
    DomainError,
    InternalInvariantViolation,
    check_int64,
    check_rows,
    echo_plain,
)


class PointKind(enum.Enum):
    ORIGIN = "origin"
    FREE = "free"
    SATELLITE = "satellite"


# the kinds under plain names: on CPython 3.11 looking a member up on the
# enum class costs ten times as much, and the sums test the kind of every run
_ORIGIN, _FREE, _SATELLITE = PointKind.ORIGIN, PointKind.FREE, PointKind.SATELLITE


def _kind_error(kind) -> DomainError:
    """The refusal of a run kind that is not a PointKind; callers test the type inline."""
    return DomainError(f"expected a PointKind, got {type(kind).__name__} {echo_plain(repr(kind))}")


class Run(NamedTuple):
    """count consecutive points of one multiplicity, kind and stage; a point is a run of one."""

    multiplicity: int
    count: int
    kind: PointKind
    stage: int


def _canonical(runs, origin: bool) -> tuple[tuple[Run, ...], tuple[int, int, int]]:
    """runs checked and merged, and their sums over all, free and satellite points.

    A run's multiplicity, count and stage are held to the integer rule
    (check_int64) and its kind must be a PointKind, so every sum is one of
    non-negative ints.  A run needs multiplicity >= 1 and count >= 0;
    empty runs are dropped and neighbours of equal multiplicity, kind and
    stage merged.  With origin the first run is the origin, a run of one
    point; no other is.
    """
    out: list[Run] = []
    total = free = satellite = 0
    for run in runs:
        m, count, kind, stage = run
        # the integer rule, inline on both edges; check_int64 only refuses
        if not (type(m) is type(count) is type(stage) is int and INT64_MIN <= m <= INT64_MAX
                and INT64_MIN <= count <= INT64_MAX and INT64_MIN <= stage <= INT64_MAX):
            check_int64(m, count, stage)
        if type(kind) is not PointKind:
            raise _kind_error(kind)
        if m < 1 or count < 0:
            raise InternalInvariantViolation(f"invalid run {tuple(run)}")
        if not count:
            continue
        weight = m * count
        total += weight
        if kind is _FREE:
            free += weight
        elif kind is _SATELLITE:
            satellite += weight
        last = out[-1] if out else None
        if last and (last.multiplicity, last.kind, last.stage) == (m, kind, stage):
            out[-1] = last._replace(count=last.count + count)
        else:
            out.append(run)
    if origin and (not out or out[0].kind is not _ORIGIN):
        raise InternalInvariantViolation("sequence must start at the origin")
    if (origin and out[0].count != 1) or any(r.kind is _ORIGIN for r in out[int(origin):]):
        raise InternalInvariantViolation("only the first point is the origin")
    return tuple(out), (total, free, satellite)


@dataclass(frozen=True)
class MultiplicitySequence:
    """The resolution's points as runs, kept canonical on construction."""

    runs: tuple[Run, ...]
    # the sums of multiplicity * count over all, free and satellite points,
    # taken while the runs are canonicalised; runs alone decide equality
    _sums: tuple[int, int, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        runs, sums = _canonical(self.runs, origin=True)
        object.__setattr__(self, "runs", runs)
        object.__setattr__(self, "_sums", sums)

    @property
    def points(self) -> tuple[Run, ...]:
        """Every point in order, as a run of one; refused above SIEVE_LIMIT points."""
        total = sum(r.count for r in self.runs)
        if total > SIEVE_LIMIT:
            raise DomainError(
                f"{total} resolution points exceed the expansion limit of "
                f"{SIEVE_LIMIT} (SIEVE_LIMIT)"
            )
        return tuple(chain.from_iterable(repeat(r._replace(count=1), r.count) for r in self.runs))

    @property
    def origin_multiplicity(self) -> int:
        return self.runs[0].multiplicity

    # each sum is of non-negative ints (see _canonical), so only its upper edge
    # is tested inline, and check_int64 runs only to raise; the
    # SEQUENCE_IDENTITIES rows make the same test on _sums, and call these
    # methods only for a row's detail or refusal

    def sum_total(self) -> int:
        total = self._sums[0]
        return total if total <= INT64_MAX else check_int64(total)

    def sum_free(self) -> int:
        total = self._sums[1]
        return total if total <= INT64_MAX else check_int64(total)

    def sum_satellite(self) -> int:
        total = self._sums[2]
        return total if total <= INT64_MAX else check_int64(total)


def _euclid_runs(a: int, b: int) -> list[tuple[int, int]]:
    """(multiplicity, count) runs emitted by the Euclidean algorithm on (a, b).

    Each step a = q b + r contributes b repeated q times (nothing when
    q = 0); the run ends when the remainder hits zero, so the last
    emitted value is gcd(a, b).
    """
    out: list[tuple[int, int]] = []
    while b > 0:
        q, r = divmod(a, b)
        if q:
            out.append((b, q))
        a, b = b, r
    return out


def _mark_stage(a: int, b: int, stage: int) -> tuple[Run, ...]:
    """The runs of the stage with key (a, b, stage), split by kind of point.

    With a = q b + r the first division step, the q points of
    multiplicity b are free (the first is the origin in stage 1), the
    next point, of multiplicity r, is the last free one, and the rest of
    Euclid's runs on (b, r) are satellites.  A key with b < 1 or b | a
    has no such split, and raises.
    """
    if b < 1 or a % b == 0:
        raise InternalInvariantViolation(f"stage {stage} key ({a}, {b}) has no split")
    q, r = divmod(a, b)
    (_, q1), *rest = _euclid_runs(b, r)
    runs = [(b, 1, _ORIGIN), (b, q - 1, _FREE)] if stage == 1 else [(b, q, _FREE)]
    runs += [(r, 1, _FREE), (r, q1 - 1, _SATELLITE)]
    runs += [(m, count, _SATELLITE) for m, count in rest]
    out = []
    for m, count, kind in runs:
        if count:
            out.append(tuple.__new__(Run, (m, count, kind, stage)))  # Run(...) without its frame
    return tuple(out)


def _build_sequence(c: CharacteristicExponents, table: dict) -> MultiplicitySequence:
    """The stages of c from table joined, before SEQUENCE_IDENTITIES run.

    A key first met gets its record: its runs, checked once, their sums,
    and no values yet.  Each stage is a canonical record and no run merges
    across stages, so the join is the runs in stage order and the sums added.
    """
    runs, sums = (), None
    for key in c.stage_keys:
        stage = table.get(key)
        if stage is None:
            stage_runs, stage_sums = _canonical(_mark_stage(*key), origin=key[2] == 1)
            stage = table[key] = SimpleNamespace(runs=stage_runs, sums=stage_sums, values=None)
        runs += stage.runs
        sums = stage.sums if sums is None else tuple(map(add, sums, stage.sums))
    m = object.__new__(MultiplicitySequence)  # canonical already: no __post_init__ pass
    m.__dict__.update(runs=runs, _sums=sums)
    return m


# the rows of invariants.IDENTITIES about v.seq, the sequence of class v.c;
# each reads its sum from _sums, tested inline to fit in 64 bits, and calls
# the sum_* method, which refuses a sum past them, only when the row fails
SEQUENCE_IDENTITIES = (
    ("multiplicity_total_sum",
     lambda v: None if (t := v.seq._sums[0]) <= INT64_MAX and t == v.c.beta[-1] + v.c.n - 1
     else f"sum {v.seq.sum_total()}"),
    ("multiplicity_free_sum",
     lambda v: None if (t := v.seq._sums[1]) <= INT64_MAX and v.c.n + t == v.c.beta[-1]
     else f"free sum {v.seq.sum_free()}"),
    ("multiplicity_satellite_sum",
     lambda v: None if (t := v.seq._sums[2]) <= INT64_MAX and t == v.c.n - 1
     else f"satellite sum {v.seq.sum_satellite()}"),
)


def multiplicity_sequence(c: CharacteristicExponents) -> MultiplicitySequence:
    """Multiplicity sequence of the minimal embedded resolution of c.

    Points carry their kind (origin / free / satellite) and the stage
    that produced them; the trailing multiplicity-1 points are included.
    It runs the rows of SEQUENCE_IDENTITIES first, each sum checked to 64 bits.
    """
    seq = _build_sequence(c, {})
    check_rows(SEQUENCE_IDENTITIES, SimpleNamespace(c=c, seq=seq), subject=c)
    return seq


def append_smooth_points(m: MultiplicitySequence, k: int) -> MultiplicitySequence:
    """Extend a resolution by k further free points of multiplicity 1.

    Models blowing up beyond the minimal resolution; the sum identities
    of the minimal sequence no longer hold for the result, so none are
    asserted here.  Invariants computed from the sequence are unchanged
    because multiplicity-1 free points contribute zero everywhere.
    """
    check_int64(k)
    if k < 0:
        raise DomainError(f"cannot append {k} points")
    stage = m.runs[-1].stage
    return MultiplicitySequence(m.runs + (Run(1, k, _FREE, stage),))
