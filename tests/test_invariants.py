"""Invariant formulas: pinned values, double computations, invariance."""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from branch_invariants import (
    CharacteristicExponents,
    DomainError,
    EnumerationBounds,
    InvariantReport,
    MultiplicitySequence,
    NegativeGapCountError,
    OverflowLimitError,
    PointKind,
    Run,
    SemigroupGenerators,
    adjusted_multiplicity,
    append_smooth_points,
    char_exponents_from_semigroup,
    differential_gap_count,
    dimca_greuel_margin,
    enumerate_classes,
    full_report,
    generic_component_dim,
    milnor_number,
    minimal_tjurina,
    moduli_dim_term,
    mu_constant_stratum_dim,
    multiplicity_sequence,
    report_gap_count,
    semigroup_from_char_exponents,
    tjurina_lower_bound,
)
from branch_invariants.invariants import (
    _differential_gap_formula,
    _minimal_tjurina_formula,
    decimal_ratio,
)
from branch_invariants.errors import INT64_MAX
from oracles import decimal_ratio_reference, naive_conductor_and_gaps


def family(max_mult, max_beta):
    return enumerate_classes(EnumerationBounds(max_mult, max_beta))


def seq_of(n, beta):
    return multiplicity_sequence(CharacteristicExponents(n, beta))


def seq_of_semigroup(gens):
    c = char_exponents_from_semigroup(SemigroupGenerators(gens))
    return multiplicity_sequence(c)


class TestModuliDimTerm:
    @pytest.mark.parametrize(
        "k, expected", [(2, 0), (3, 0), (4, 0), (5, 1), (6, 2), (7, 4)]
    )
    def test_pinned(self, k, expected):
        assert moduli_dim_term(k) == expected

    def test_domain(self):
        for k in (1, 0, -3):
            with pytest.raises(DomainError):
                moduli_dim_term(k)

    def test_pointwise_bound_sample(self):
        for k in range(2, 500):
            assert 4 * moduli_dim_term(k) >= (k - 2) * (k - 4)


class TestAdjustedMultiplicity:
    def test_mapping(self):
        assert adjusted_multiplicity(Run(4, 1, PointKind.ORIGIN, 1)) == 4
        assert adjusted_multiplicity(Run(4, 1, PointKind.FREE, 1)) == 5
        assert adjusted_multiplicity(Run(4, 1, PointKind.SATELLITE, 1)) == 6

    @pytest.mark.parametrize("kind", [PointKind.FREE, PointKind.SATELLITE])
    def test_a_result_out_of_64_bits_is_refused(self, kind):
        with pytest.raises(OverflowLimitError):
            adjusted_multiplicity(Run(INT64_MAX, 1, kind, 1))


class TestMilnor:
    @pytest.mark.parametrize(
        "n, beta, expected", [(2, (3,), 2), (5, (7,), 24), (4, (6, 7), 16)]
    )
    def test_pinned(self, n, beta, expected):
        assert milnor_number(seq_of(n, beta)) == expected

    def test_twice_gap_count_oracle(self):
        for c in family(8, 40):
            s = semigroup_from_char_exponents(c)
            _, gaps = naive_conductor_and_gaps(s.gens)
            assert milnor_number(multiplicity_sequence(c)) == 2 * len(gaps)

    def test_even(self):
        for c in family(10, 50):
            assert milnor_number(multiplicity_sequence(c)) % 2 == 0


class TestStratumDim:
    @pytest.mark.parametrize(
        "n, beta, expected", [(2, (3,), 0), (4, (5,), 1), (5, (7,), 4)]
    )
    def test_pinned(self, n, beta, expected):
        assert mu_constant_stratum_dim(seq_of(n, beta)) == expected

    def test_one_pair_closed_form(self):
        # for a single pair (n; m) the dimension is (n-3)(m-3)/2 + floor(m/n) - 1
        from math import gcd

        for n in range(2, 31):
            for m in range(n + 1, 31):
                if gcd(n, m) != 1:
                    continue
                c = CharacteristicExponents(n, (m,))
                want = (n - 3) * (m - 3) // 2 + m // n - 1
                assert mu_constant_stratum_dim(multiplicity_sequence(c)) == want, str(c)


class TestGenericComponentDim:
    @pytest.mark.parametrize(
        "n, beta, expected", [(2, (3,), 0), (5, (7,), 1), (6, (7,), 2)]
    )
    def test_pinned(self, n, beta, expected):
        assert generic_component_dim(seq_of(n, beta)) == expected


class TestMinimalTjurina:
    @pytest.mark.parametrize(
        "gens, expected",
        [((2, 3), 2), ((4, 5), 11), ((4, 6, 13), 14), ((6, 7), 26)],
    )
    def test_pinned(self, gens, expected):
        assert minimal_tjurina(seq_of_semigroup(gens)) == expected

    def test_double_computation(self):
        for c in family(12, 80):
            m = multiplicity_sequence(c)
            closed = _minimal_tjurina_formula(m)
            recombined = (
                generic_component_dim(m)
                + milnor_number(m)
                - mu_constant_stratum_dim(m)
            )
            assert closed == recombined, str(c)


class TestLowerBound:
    @pytest.mark.parametrize("n, expected", [(2, 2), (3, 6), (6, 26)])
    def test_pinned(self, n, expected):
        assert tjurina_lower_bound(n) == expected

    def test_domain(self):
        with pytest.raises(DomainError):
            tjurina_lower_bound(1)

    def test_attained_exactly_on_n_nplus1(self):
        for c in family(10, 60):
            tau = minimal_tjurina(multiplicity_sequence(c))
            bound = tjurina_lower_bound(c.n)
            assert tau >= bound, str(c)
            assert (tau == bound) == (c.beta == (c.n + 1,)), str(c)


class TestMargin:
    @pytest.mark.parametrize(
        "gens, expected", [((2, 3), 2), ((6, 7), 14), ((4, 5), 8)]
    )
    def test_pinned(self, gens, expected):
        c = char_exponents_from_semigroup(SemigroupGenerators(gens))
        assert dimca_greuel_margin(full_report(c)) == expected

    def test_margin_floor(self):
        for c in family(10, 60):
            m = multiplicity_sequence(c)
            r = full_report(c)
            margin = dimca_greuel_margin(r)
            slack = sum(
                p.multiplicity - 1 for p in m.points if p.kind is PointKind.FREE
            )
            assert margin >= 2 * c.n - 3 + slack > 0, str(c)
            assert 3 * r.mu < 4 * r.tau_min

    @pytest.mark.parametrize("tau_min, mu", [(2**60, -2**61), (-2**60, 2**61)])
    def test_a_margin_out_of_64_bits_is_refused(self, tau_min, mu):
        # 4 tau_min and 3 mu fit in 64 bits, their difference does not
        with pytest.raises(OverflowLimitError):
            dimca_greuel_margin(SimpleNamespace(tau_min=tau_min, mu=mu))


class TestDifferentialGaps:
    @pytest.mark.parametrize(
        "gens, expected", [((2, 3), 0), ((4, 5), 2), ((6, 7), 6)]
    )
    def test_pinned_semigroups(self, gens, expected):
        assert differential_gap_count(seq_of_semigroup(gens)) == expected

    @pytest.mark.parametrize(
        "n, beta, expected", [(5, (7,), 5), (4, (6, 7), 3)]
    )
    def test_pinned_exponents(self, n, beta, expected):
        assert differential_gap_count(seq_of(n, beta)) == expected

    def test_double_computation(self):
        for c in family(12, 80):
            m = multiplicity_sequence(c)
            closed = _differential_gap_formula(m)
            rearranged = (
                _minimal_tjurina_formula(m)
                - milnor_number(m) // 2
                - c.n
                + 1
            )
            assert closed == rearranged >= 0, str(c)

    def test_inconsistent_report_rejected(self):
        bogus = InvariantReport(
            n=5, mu=24, tau_minus=4, q_min=1, tau_min=10,
            quotient_num=12, quotient_den=5, tau_lower_bound=18, delta_gen_gaps=0,
        )
        with pytest.raises(NegativeGapCountError):
            report_gap_count(bogus)


class TestFullReport:
    def test_coherence(self):
        for c in family(10, 60):
            r = full_report(c)
            assert r.n == c.n
            assert r.tau_min == r.q_min + r.mu - r.tau_minus
            assert r.quotient_num * r.tau_min == r.mu * r.quotient_den
            from math import gcd
            assert gcd(r.quotient_num, r.quotient_den) == 1
            assert r.delta_gen_gaps == report_gap_count(r)

    def test_resolution_invariance(self):
        for c in family(8, 40):
            m = multiplicity_sequence(c)
            base = (
                milnor_number(m),
                mu_constant_stratum_dim(m),
                generic_component_dim(m),
                minimal_tjurina(m),
                differential_gap_count(m),
            )
            for k in (1, 2, 5):
                ext = append_smooth_points(m, k)
                assert (
                    milnor_number(ext),
                    mu_constant_stratum_dim(ext),
                    generic_component_dim(ext),
                    minimal_tjurina(ext),
                    differential_gap_count(ext),
                ) == base, f"{c} with {k} extra points"


class TestDecimalRendering:
    @pytest.mark.parametrize(
        "num, den, text",
        [
            (8, 7, "1.142857"),
            (1, 1, "1.000000"),
            (12, 11, "1.090909"),
            (1, 2000000, "0.000000"),   # tie rounds to even
            (3, 2000000, "0.000002"),   # tie rounds to even
            (1, 64, "0.015625"),
        ],
    )
    def test_half_even(self, num, den, text):
        assert decimal_ratio(num, den) == text


@given(st.integers(0, INT64_MAX), st.integers(1, INT64_MAX))
def test_decimal_ratio_matches_the_decimal_reference(num, den):
    assert decimal_ratio(num, den) == decimal_ratio_reference(num, den)


class TestRefusedRuns:
    """A run no term is defined on raises DomainError, never Python's own error."""

    # an origin of multiplicity 1: adjusted multiplicity 1, below every term's domain
    SMOOTH_ORIGIN = MultiplicitySequence((Run(1, 1, PointKind.ORIGIN, 1),))

    @pytest.mark.parametrize(
        "fn", [mu_constant_stratum_dim, minimal_tjurina, differential_gap_count]
    )
    def test_an_adjusted_multiplicity_below_2_is_refused(self, fn):
        with pytest.raises(DomainError, match="needs k >= 2, got 1"):
            fn(self.SMOOTH_ORIGIN)

    @pytest.mark.parametrize("kind, shown", [
        ("free", "str 'free'"), (None, "NoneType None"), (3, "int 3"),
    ])
    def test_a_kind_that_is_not_a_point_kind_is_refused(self, kind, shown):
        with pytest.raises(DomainError, match=f"^expected a PointKind, got {shown}$"):
            adjusted_multiplicity(Run(2, 1, kind, 1))
