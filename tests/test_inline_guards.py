"""The guards on the per-class path raise the same error, in the same order, as their helpers.

Each integer test and exact division on that path is written inline and
calls errors.check_int64 or errors.exact_div only to refuse.  These
probes pin the type and the whole message of each refusal, so a guard
moved inline cannot drop a check, reorder two, or name another value.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from branch_invariants import (
    CharacteristicExponents,
    DomainError,
    InternalInvariantViolation,
    MultiplicitySequence,
    OverflowLimitError,
    PointKind,
    Run,
    SemigroupGenerators,
    generic_component_dim,
    milnor_number,
    minimal_tjurina,
    moduli_dim_term,
    multiplicity_sequence,
    report_gap_count,
    semigroup_from_char_exponents,
)
from branch_invariants.errors import INT64_MAX, failing_rows
from branch_invariants.resolution import SEQUENCE_IDENTITIES

ORIGIN, FREE, SATELLITE = PointKind.ORIGIN, PointKind.FREE, PointKind.SATELLITE


def past_64_bits(value: int) -> str:
    return f"value {value} exceeds the signed 64-bit range"


# (probe, error type, whole message)
PROBES = {
    "generator accumulator": (
        lambda: semigroup_from_char_exponents(CharacteristicExponents(4, (2**62 + 2, 2**62 + 3))),
        OverflowLimitError, past_64_bits(9223372036854775812)),
    "generator": (
        lambda: semigroup_from_char_exponents(CharacteristicExponents(4, (2**62 - 2, 2**63 - 3))),
        OverflowLimitError, past_64_bits(13835058055282163707)),
    "moduli term square": (
        lambda: moduli_dim_term(3037000500), OverflowLimitError, past_64_bits(9223372037000250000)),
    "moduli term at INT64_MAX": (
        lambda: moduli_dim_term(INT64_MAX),
        OverflowLimitError, past_64_bits(INT64_MAX * INT64_MAX)),
    "moduli term past 64 bits": (
        lambda: moduli_dim_term(2**63), OverflowLimitError, past_64_bits(2**63)),
    "moduli term of an origin": (
        lambda: generic_component_dim(MultiplicitySequence((Run(3037000500, 1, ORIGIN, 1),))),
        OverflowLimitError, past_64_bits(9223372037000250000)),
    "tau_min of an origin": (
        lambda: minimal_tjurina(MultiplicitySequence((Run(3037000500, 1, ORIGIN, 1),))),
        OverflowLimitError, past_64_bits(9223372037000250000)),
    "moduli term below 2": (
        lambda: moduli_dim_term(1), DomainError, "moduli term needs k >= 2, got 1"),
    "moduli term of a bool": (
        lambda: moduli_dim_term(True), DomainError, "expected an int, got bool True"),
    "moduli term of a float": (
        lambda: moduli_dim_term(4.0), DomainError, "expected an int, got float 4.0"),
    "run multiplicity": (
        lambda: MultiplicitySequence((Run(2**63, 1, ORIGIN, 1),)),
        OverflowLimitError, past_64_bits(2**63)),
    "run count": (
        lambda: MultiplicitySequence((Run(2, 1, ORIGIN, 1), Run(1, -2**63 - 1, FREE, 1))),
        OverflowLimitError, past_64_bits(-2**63 - 1)),
    "run stage": (
        lambda: MultiplicitySequence((Run(2, 1, ORIGIN, 1), Run(1, 1, FREE, -2**63 - 1))),
        OverflowLimitError, past_64_bits(-2**63 - 1)),
    "run multiplicity before count": (
        lambda: MultiplicitySequence((Run(2.0, 2**63, FREE, 1),)),
        DomainError, "expected an int, got float 2.0"),
    "run integers before kind": (
        lambda: MultiplicitySequence((Run(2**63, 1, "free", 1),)),
        OverflowLimitError, past_64_bits(2**63)),
    "Milnor total": (
        lambda: milnor_number(MultiplicitySequence((Run(3, 1, ORIGIN, 1), Run(2, 2**62, FREE, 1)))),
        OverflowLimitError, past_64_bits(9223372036854775814)),
    "half Milnor": (
        lambda: report_gap_count(SimpleNamespace(
            n=2, mu=3, tau_minus=0, q_min=0, tau_min=5, delta_gen_gaps=1)),
        InternalInvariantViolation, "half Milnor: 3 is not divisible by 2"),
    "sequence total": (
        lambda: multiplicity_sequence(CharacteristicExponents(3, (INT64_MAX,))),
        OverflowLimitError, past_64_bits(INT64_MAX + 2)),
    "sequence sums in the rows": (
        lambda: failing_rows(SEQUENCE_IDENTITIES, SimpleNamespace(
            c=CharacteristicExponents(4, (6, 7)),
            seq=MultiplicitySequence((Run(2, 1, ORIGIN, 1), Run(2**62, 2, SATELLITE, 1))))),
        OverflowLimitError, past_64_bits(2**63 + 2)),
    "exponent of a float": (
        lambda: CharacteristicExponents(2.9, (3.7,)), DomainError, "expected an int, got float 2.9"),
    "exponent past 64 bits before n": (
        lambda: CharacteristicExponents(1, (2**63,)), OverflowLimitError, past_64_bits(2**63)),
    "generator past 64 bits before v_0": (
        lambda: SemigroupGenerators((1, 2**63)), OverflowLimitError, past_64_bits(2**63)),
    "generator of a bool": (
        lambda: SemigroupGenerators((True, 3)), DomainError, "expected an int, got bool True"),
}


@pytest.mark.parametrize("probe, error, message", PROBES.values(), ids=list(PROBES))
def test_a_guard_refuses_with_its_helpers_error(probe, error, message):
    with pytest.raises(error) as info:
        probe()
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("c, details", [
    (CharacteristicExponents(3, (4,)),
     [("multiplicity_total_sum", "sum 6"), ("multiplicity_free_sum", "free sum 1"),
      ("multiplicity_satellite_sum", "satellite sum 2")]),
    (CharacteristicExponents(4, (6, 9)),
     [("multiplicity_total_sum", "sum 12"), ("multiplicity_free_sum", "free sum 5")]),
    (CharacteristicExponents(4, (6, 7)), []),
])
def test_the_sequence_rows_name_their_sums(c, details):
    v = SimpleNamespace(c=CharacteristicExponents(4, (6, 7)), seq=multiplicity_sequence(c))
    assert failing_rows(SEQUENCE_IDENTITIES, v) == details
