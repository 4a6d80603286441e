"""The one integer rule: every library input must be exactly an int.

errors.check_int64 refuses any value whose type is not exactly int (a
float, a str, a bool or a numpy integer) with one DomainError line naming
the type, before its signed 64-bit range test.  Nothing is coerced, so
2.9 is not the integer 2 and "5" is not the integer 5.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from branch_invariants import (
    CharacteristicExponents,
    DomainError,
    EnumerationBounds,
    MultiplicitySequence,
    OverflowLimitError,
    PointKind,
    Run,
    SemigroupGenerators,
    adjusted_multiplicity,
    append_smooth_points,
    differential_gap_count,
    dimca_greuel_margin,
    milnor_number,
    moduli_dim_term,
    multiplicity_sequence,
    sweep,
    tjurina_lower_bound,
    validate_char_exponents,
    validate_semigroup,
)
from branch_invariants.errors import INT64_MAX

SEQ = multiplicity_sequence(CharacteristicExponents(4, (6, 7)))

# each entry point with the value under test put in one integer slot
ENTRY_POINTS = {
    "CharacteristicExponents.n": lambda v: CharacteristicExponents(v, (7,)),
    "CharacteristicExponents.beta": lambda v: CharacteristicExponents(2, (v,)),
    "validate_char_exponents.n": lambda v: validate_char_exponents(v, [7]),
    "validate_char_exponents.beta": lambda v: validate_char_exponents(4, [6, v]),
    "SemigroupGenerators": lambda v: SemigroupGenerators((2, v)),
    "validate_semigroup": lambda v: validate_semigroup([v, 7]),
    "EnumerationBounds.max_multiplicity": lambda v: EnumerationBounds(v, 60),
    "EnumerationBounds.max_beta": lambda v: EnumerationBounds(4, v),
    "EnumerationBounds.max_pairs": lambda v: EnumerationBounds(4, 60, v),
    "append_smooth_points": lambda v: append_smooth_points(SEQ, v),
    "moduli_dim_term": moduli_dim_term,
    "tjurina_lower_bound": tjurina_lower_bound,
    "dimca_greuel_margin": lambda v: dimca_greuel_margin(SimpleNamespace(mu=v, tau_min=3)),
    "sweep.workers": lambda v: sweep(EnumerationBounds(3, 5), workers=v),
}


@pytest.mark.parametrize("value", [2.9, "5", True], ids=["float", "str", "bool"])
@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_a_value_not_exactly_int_is_refused_naming_its_type(entry, value):
    with pytest.raises(DomainError) as info:
        ENTRY_POINTS[entry](value)
    message = str(info.value)
    assert "\n" not in message and len(message) < 80
    assert f"got {type(value).__name__} {value!r}" in message


def test_a_long_value_is_quoted_in_one_short_line():
    with pytest.raises(DomainError) as info:
        CharacteristicExponents("\n" * 5000, (7,))
    message = str(info.value)
    assert "\n" not in message and "(10002 characters)" in message and len(message) < 120


# run records a caller builds are held to the same rule, each field once per run
ORIGIN_4 = Run(4, 1, PointKind.ORIGIN, 1)


def test_a_bool_multiplicity_in_a_run_is_refused():
    with pytest.raises(DomainError, match="^expected an int, got bool True$"):
        milnor_number(MultiplicitySequence((Run(True, 1, PointKind.ORIGIN, 1),)))


def test_a_run_kind_that_is_not_a_point_kind_is_refused():
    with pytest.raises(DomainError, match="^expected a PointKind, got str 'free'$"):
        differential_gap_count(MultiplicitySequence((ORIGIN_4, Run(2, 1, "free", 1))))


def test_a_run_stage_that_is_not_an_int_is_refused():
    with pytest.raises(DomainError, match="^expected an int, got str 'x'$"):
        milnor_number(MultiplicitySequence((ORIGIN_4, Run(2, 2, PointKind.FREE, "x"))))


def test_adjusted_multiplicity_refuses_a_float_multiplicity():
    with pytest.raises(DomainError, match="^expected an int, got float 2.5$"):
        adjusted_multiplicity(Run(2.5, 1, PointKind.FREE, 1))


def test_adjusted_multiplicity_refuses_an_origin_beyond_64_bits():
    with pytest.raises(OverflowLimitError, match="^value 9223372036854775808 exceeds"):
        adjusted_multiplicity(Run(INT64_MAX + 1, 1, PointKind.ORIGIN, 1))
