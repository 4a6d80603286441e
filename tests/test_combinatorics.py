"""Exponent and semigroup validation, conversion, conductor, gaps."""

from __future__ import annotations

import pytest

from branch_invariants import (
    CharacteristicExponents,
    DivisibilityViolationError,
    DomainError,
    EnumerationBounds,
    GcdNotOneError,
    MultiplicitySequence,
    NonIncreasingError,
    NotPlaneError,
    NotSingularError,
    OverflowLimitError,
    SemigroupGenerators,
    char_exponents_from_semigroup,
    conductor,
    enumerate_classes,
    full_report,
    gap_count,
    semigroup_from_char_exponents,
    validate_char_exponents,
    validate_semigroup,
)
from branch_invariants.combinatorics import SIEVE_LIMIT
from oracles import naive_conductor_and_gaps


def family(max_mult, max_beta):
    return enumerate_classes(EnumerationBounds(max_mult, max_beta))


class TestExponentValidation:
    def test_smallest_class(self):
        c = validate_char_exponents(2, [3])
        assert (c.n, c.beta, c.g) == (2, (3,), 1)
        assert c.gcd_chain == (2, 1)

    def test_two_pairs(self):
        c = validate_char_exponents(4, [6, 7])
        assert c.gcd_chain == (4, 2, 1)

    def test_divisible_exponent_rejected(self):
        with pytest.raises(DivisibilityViolationError):
            validate_char_exponents(4, [6, 8])

    def test_multiple_of_n_rejected(self):
        with pytest.raises(DivisibilityViolationError):
            validate_char_exponents(4, [8])

    def test_chain_stuck_above_one(self):
        with pytest.raises(GcdNotOneError):
            validate_char_exponents(4, [6])

    def test_smooth_rejected(self):
        with pytest.raises(NotSingularError):
            validate_char_exponents(2, [])
        with pytest.raises(NotSingularError):
            validate_char_exponents(1, [2])
        with pytest.raises(NotSingularError):
            validate_char_exponents(0, [3])

    def test_ordering_enforced(self):
        with pytest.raises(NonIncreasingError):
            validate_char_exponents(4, [3])
        with pytest.raises(NonIncreasingError):
            validate_char_exponents(4, [6, 6])
        with pytest.raises(NonIncreasingError):
            validate_char_exponents(4, [7, 6])

    def test_int64_guard(self):
        with pytest.raises(OverflowLimitError):
            validate_char_exponents(2, [2**63])
        with pytest.raises(OverflowLimitError):
            validate_char_exponents(2**63, [2**63 + 1])

    def test_int_exponents_are_refused_naming_their_type(self):
        with pytest.raises(DomainError, match="^exponents must be an iterable of ints, got int 5$"):
            validate_char_exponents(3, 5)

    def test_no_exponents_are_refused_naming_their_type(self):
        with pytest.raises(DomainError,
                           match="^exponents must be an iterable of ints, got NoneType None$"):
            validate_char_exponents(3, None)


class TestSemigroupValidation:
    def test_accepts_plane_generators(self):
        s = validate_semigroup([4, 6, 13])
        assert s.gcd_chain == (4, 2, 1)
        assert s.multipliers == (2, 2)

    def test_domination_failure(self):
        with pytest.raises(NotPlaneError, match="not a plane-branch semigroup"):
            validate_semigroup([4, 6, 12])

    def test_redundant_generator(self):
        # 5 already lies in <2, 3>, so the domination inequality fails
        with pytest.raises(NotPlaneError):
            validate_semigroup([2, 3, 5])

    def test_divisible_generator(self):
        with pytest.raises(DivisibilityViolationError):
            validate_semigroup([4, 6, 14])

    def test_common_factor(self):
        with pytest.raises(GcdNotOneError):
            validate_semigroup([4, 6])

    def test_smooth_rejected(self):
        with pytest.raises(NotSingularError):
            validate_semigroup([5])
        with pytest.raises(NotSingularError):
            validate_semigroup([1, 2])

    def test_first_generator_order(self):
        with pytest.raises(NonIncreasingError):
            validate_semigroup([4, 3, 13])

    def test_an_int_is_refused_naming_its_type(self):
        with pytest.raises(DomainError, match="^generators must be an iterable of ints, got int 5$"):
            validate_semigroup(5)

    def test_none_is_refused_naming_its_type(self):
        with pytest.raises(DomainError,
                           match="^generators must be an iterable of ints, got NoneType None$"):
            validate_semigroup(None)


class TestConversion:
    @pytest.mark.parametrize(
        "n, beta, gens",
        [
            (2, (3,), (2, 3)),
            (4, (6, 7), (4, 6, 13)),
            (6, (9, 13), (6, 9, 22)),
        ],
    )
    def test_pinned_semigroups(self, n, beta, gens):
        c = CharacteristicExponents(n, beta)
        assert semigroup_from_char_exponents(c).gens == gens

    def test_pinned_inverse(self):
        s = SemigroupGenerators((4, 6, 13))
        c = char_exponents_from_semigroup(s)
        assert (c.n, c.beta) == (4, (6, 7))

    def test_round_trip_both_ways(self):
        for c in family(12, 80):
            s = semigroup_from_char_exponents(c)
            assert char_exponents_from_semigroup(s) == c
            assert semigroup_from_char_exponents(char_exponents_from_semigroup(s)) == s

    def test_gcd_chains_agree(self):
        for c in family(12, 80):
            assert semigroup_from_char_exponents(c).gcd_chain == c.gcd_chain

    def test_conversion_overflow(self):
        c = CharacteristicExponents(4, (2**62 + 2, 2**62 + 3))
        with pytest.raises(OverflowLimitError):
            semigroup_from_char_exponents(c)


class TestConductorAndGaps:
    @pytest.mark.parametrize(
        "gens, expected",
        [((2, 3), 2), ((4, 6, 13), 16), ((5, 7), 24)],
    )
    def test_pinned_conductors(self, gens, expected):
        assert conductor(SemigroupGenerators(gens)) == expected

    @pytest.mark.parametrize(
        "gens, expected",
        [((2, 3), 1), ((5, 7), 12), ((4, 6, 13), 8)],
    )
    def test_pinned_gap_counts(self, gens, expected):
        assert gap_count(SemigroupGenerators(gens)) == expected

    def test_against_enumeration_oracle(self):
        for c in family(8, 40):
            s = semigroup_from_char_exponents(c)
            want_conductor, want_gaps = naive_conductor_and_gaps(s.gens)
            assert conductor(s) == want_conductor
            assert gap_count(s) == len(want_gaps)

    def test_symmetry(self):
        for c in family(12, 80):
            s = semigroup_from_char_exponents(c)
            assert conductor(s) == 2 * gap_count(s)

    def test_one_pair_closed_form(self):
        # <n, m> coprime has conductor (n - 1)(m - 1)
        for n, m in [(2, 3), (3, 4), (5, 7), (6, 7), (8, 9), (9, 10)]:
            assert conductor(SemigroupGenerators((n, m))) == (n - 1) * (m - 1)


class TestSieveLimit:
    def test_above_the_limit_is_refused(self):
        s = SemigroupGenerators((2, 10**7 + 1))
        for fn in (conductor, gap_count):
            with pytest.raises(DomainError, match="SIEVE_LIMIT"):
                fn(s)

    def test_just_below_the_limit_is_sieved(self):
        m = SIEVE_LIMIT - 3  # c + n = (m - 1) + 2 = SIEVE_LIMIT - 2
        s = SemigroupGenerators((2, m))
        assert conductor(s) == m - 1
        assert gap_count(s) == (m - 1) // 2


@pytest.mark.parametrize("call, error", [
    (lambda: full_report((2, (3,))), AttributeError),
    (lambda: conductor((2, 3)), AttributeError),
    (lambda: semigroup_from_char_exponents((2, (3,))), AttributeError),
    (lambda: MultiplicitySequence(None), TypeError),
])
def test_a_non_record_argument_is_pythons_own_error(call, error):
    """Past the validators, a non-record raises Python's error, as README states."""
    with pytest.raises(error):
        call()
