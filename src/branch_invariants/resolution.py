"""Multiplicity sequences of the minimal embedded resolution.

The points infinitely near the origin that a branch passes through are
produced stage by stage, one stage per characteristic pair, by running
the Euclidean algorithm on the pair's exponent data: stage 1 on
(beta_1, n), stage i >= 2 on (beta_i - beta_{i-1}, e_{i-1}).  Each
division step a = q b + r emits the divisor b as a multiplicity q times.

A point is free when it lies on exactly one exceptional component,
satellite when it lies on two.  Within a stage the free points are the
maximal prefix (past the origin in stage 1) whose multiplicities sum to
beta_i - beta_{i-1}; the Euclidean structure makes that prefix sum
always exactly attainable, and three sum identities pin the result:

    sum of all multiplicities        = beta_g + n - 1
    n + sum over free points         = beta_g
    sum over satellite points        = n - 1

All three are asserted before a sequence is returned.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .combinatorics import CharacteristicExponents
from .errors import DomainError, InternalInvariantViolation


class PointKind(enum.Enum):
    ORIGIN = "origin"
    FREE = "free"
    SATELLITE = "satellite"


@dataclass(frozen=True)
class InfinitelyNearPoint:
    multiplicity: int
    kind: PointKind
    stage: int  # index of the characteristic pair that produced the point

    def __post_init__(self) -> None:
        if self.multiplicity < 1:
            raise InternalInvariantViolation(
                f"point multiplicity {self.multiplicity} < 1"
            )


@dataclass(frozen=True)
class MultiplicitySequence:
    points: tuple[InfinitelyNearPoint, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        if not self.points or self.points[0].kind is not PointKind.ORIGIN:
            raise InternalInvariantViolation("sequence must start at the origin")
        if any(p.kind is PointKind.ORIGIN for p in self.points[1:]):
            raise InternalInvariantViolation("only the first point is the origin")

    @property
    def origin_multiplicity(self) -> int:
        return self.points[0].multiplicity

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(p.multiplicity for p in self.points)

    def sum_total(self) -> int:
        return sum(p.multiplicity for p in self.points)

    def sum_free(self) -> int:
        return sum(p.multiplicity for p in self.points if p.kind is PointKind.FREE)

    def sum_satellite(self) -> int:
        return sum(p.multiplicity for p in self.points if p.kind is PointKind.SATELLITE)


def _euclid_multiplicities(a: int, b: int) -> list[int]:
    """Multiplicities emitted by the Euclidean algorithm on (a, b).

    Each step a = q b + r contributes b repeated q times; the run ends
    when the remainder hits zero, so the last emitted value is gcd(a, b).
    """
    out: list[int] = []
    while b > 0:
        q, r = divmod(a, b)
        out.extend([b] * q)
        a, b = b, r
    return out


def _mark_stage(
    mults: list[int], stage: int, free_target: int, skip_origin: bool
) -> list[InfinitelyNearPoint]:
    """Split one stage into free prefix and satellite tail.

    The free points are the maximal prefix (after the origin when
    skip_origin) summing exactly to free_target; the prefix must land on
    the target exactly or the generating algorithm is broken.
    """
    points: list[InfinitelyNearPoint] = []
    idx = 0
    if skip_origin:
        points.append(InfinitelyNearPoint(mults[0], PointKind.ORIGIN, stage))
        idx = 1
    acc = 0
    while idx < len(mults) and acc + mults[idx] <= free_target:
        acc += mults[idx]
        points.append(InfinitelyNearPoint(mults[idx], PointKind.FREE, stage))
        idx += 1
    if acc != free_target:
        raise InternalInvariantViolation(
            f"stage {stage}: free prefix reaches {acc}, not {free_target}"
        )
    for m in mults[idx:]:
        points.append(InfinitelyNearPoint(m, PointKind.SATELLITE, stage))
    return points


def _build_sequence(c: CharacteristicExponents) -> MultiplicitySequence:
    """The stages of c marked and joined, before the sum identities are checked."""
    chain = c.gcd_chain
    points: list[InfinitelyNearPoint] = []
    for i in range(1, c.g + 1):
        if i == 1:
            mults = _euclid_multiplicities(c.beta[0], c.n)
            free_target = c.beta[0] - c.n
        else:
            mults = _euclid_multiplicities(c.beta[i - 1] - c.beta[i - 2], chain[i - 1])
            free_target = c.beta[i - 1] - c.beta[i - 2]
        if not mults or any(m < 1 for m in mults):
            raise InternalInvariantViolation(f"stage {i} emitted no valid points")
        for j in range(1, len(mults)):
            if mults[j] > mults[j - 1]:
                raise InternalInvariantViolation(
                    f"stage {i} multiplicities increase at position {j}"
                )
        points.extend(_mark_stage(mults, i, free_target, skip_origin=(i == 1)))
    return MultiplicitySequence(tuple(points))


def multiplicity_sequence(c: CharacteristicExponents) -> MultiplicitySequence:
    """Multiplicity sequence of the minimal embedded resolution of c.

    Points carry their kind (origin / free / satellite) and the stage
    that produced them; the trailing multiplicity-1 points are included.
    """
    seq = _build_sequence(c)
    if seq.sum_total() != c.beta[-1] + c.n - 1:
        raise InternalInvariantViolation(
            f"{c}: total multiplicity {seq.sum_total()} != beta_g + n - 1"
        )
    if c.n + seq.sum_free() != c.beta[-1]:
        raise InternalInvariantViolation(
            f"{c}: n + free sum {c.n + seq.sum_free()} != beta_g"
        )
    if seq.sum_satellite() != c.n - 1:
        raise InternalInvariantViolation(
            f"{c}: satellite sum {seq.sum_satellite()} != n - 1"
        )
    return seq


def append_smooth_points(m: MultiplicitySequence, k: int) -> MultiplicitySequence:
    """Extend a resolution by k further free points of multiplicity 1.

    Models blowing up beyond the minimal resolution; the sum identities
    of the minimal sequence no longer hold for the result, so none are
    asserted here.  Invariants computed from the sequence are unchanged
    because multiplicity-1 free points contribute zero everywhere.
    """
    if k < 0:
        raise DomainError(f"cannot append {k} points")
    stage = m.points[-1].stage
    extra = tuple(
        InfinitelyNearPoint(1, PointKind.FREE, stage) for _ in range(k)
    )
    return MultiplicitySequence(m.points + extra)
