"""Multiplicity sequences: pinned values, blow-up oracle, sum identities, stage split."""

from __future__ import annotations

import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from branch_invariants import (
    CharacteristicExponents,
    DomainError,
    EnumerationBounds,
    InternalInvariantViolation,
    MultiplicitySequence,
    OverflowLimitError,
    PointKind,
    append_smooth_points,
    enumerate_classes,
    multiplicity_sequence,
)
from branch_invariants.errors import INT64_MAX
from branch_invariants.resolution import Run, _euclid_runs, _mark_stage
from oracles import blowup_multiplicity_sequence

O, F, S = "origin", "free", "satellite"


def seq_pairs(c: CharacteristicExponents):
    return [
        (p.multiplicity, p.kind.value) for p in multiplicity_sequence(c).points
    ]


class TestPinnedSequences:
    def test_ordinary_cusp(self):
        assert seq_pairs(CharacteristicExponents(2, (3,))) == [
            (2, O), (1, F), (1, S),
        ]

    def test_one_pair_5_7(self):
        assert seq_pairs(CharacteristicExponents(5, (7,))) == [
            (5, O), (2, F), (2, S), (1, S), (1, S),
        ]

    def test_two_pair_4_6_7(self):
        assert seq_pairs(CharacteristicExponents(4, (6, 7))) == [
            (4, O), (2, F), (2, S), (1, F), (1, S),
        ]

    def test_4_6_7_stage_boundary(self):
        stages = [p.stage for p in
                  multiplicity_sequence(CharacteristicExponents(4, (6, 7))).points]
        assert stages == [1, 1, 1, 2, 2]

    def test_tacnode_like_2_5(self):
        assert seq_pairs(CharacteristicExponents(2, (5,))) == [
            (2, O), (2, F), (1, F), (1, S),
        ]


class TestBlowUpOracle:
    def test_small_box(self):
        for c in enumerate_classes(EnumerationBounds(6, 24)):
            assert seq_pairs(c) == blowup_multiplicity_sequence(c.n, c.beta), str(c)

    @pytest.mark.parametrize(
        "n, beta",
        [
            (6, (10, 13)),
            (4, (10, 11)),
            (6, (8, 9)),
            (8, (10, 11)),
            (8, (12, 14, 15)),
            (12, (18, 22, 23)),
            (9, (12, 16)),
            (16, (24, 28, 30, 31)),
        ],
    )
    def test_deeper_classes(self, n, beta):
        c = CharacteristicExponents(n, beta)
        assert seq_pairs(c) == blowup_multiplicity_sequence(n, beta)


class TestStructure:
    def test_sum_identities(self):
        for c in enumerate_classes(EnumerationBounds(12, 80)):
            m = multiplicity_sequence(c)
            assert m.sum_total() == c.beta[-1] + c.n - 1
            assert c.n + m.sum_free() == c.beta[-1]
            assert m.sum_satellite() == c.n - 1

    @pytest.mark.parametrize("n", [2, 3])
    def test_sums_out_of_64_bits_are_refused(self, n):
        # sum_total is beta_g + n - 1, one or two past INT64_MAX
        with pytest.raises(OverflowLimitError, match=str(INT64_MAX + n - 1)):
            multiplicity_sequence(CharacteristicExponents(n, (INT64_MAX,)))

    def test_sums_inside_64_bits_build(self):
        m = multiplicity_sequence(CharacteristicExponents(2, (10**18 + 1,)))
        assert m.sum_total() == 10**18 + 2

    @pytest.mark.parametrize("kind", [PointKind.FREE, PointKind.SATELLITE])
    def test_each_sum_is_checked_at_its_total(self, kind):
        m = MultiplicitySequence(
            (Run(2, 1, PointKind.ORIGIN, 1), Run(INT64_MAX // 2 + 1, 2, kind, 1))
        )
        by_kind = m.sum_free if kind is PointKind.FREE else m.sum_satellite
        for total in (m.sum_total, by_kind):
            with pytest.raises(OverflowLimitError):
                total()

    def test_shape(self):
        for c in enumerate_classes(EnumerationBounds(10, 50)):
            m = multiplicity_sequence(c)
            assert m.points[0].kind is PointKind.ORIGIN
            assert m.points[0].multiplicity == c.n
            assert all(p.kind is not PointKind.ORIGIN for p in m.points[1:])
            assert m.points[-1].multiplicity == 1
            stages = [p.stage for p in m.points]
            assert stages == sorted(stages)
            assert sorted(set(stages)) == list(range(1, c.g + 1))
            # non-increasing within each stage
            for i in range(1, len(m.points)):
                if m.points[i].stage == m.points[i - 1].stage:
                    assert m.points[i].multiplicity <= m.points[i - 1].multiplicity


class TestAppendSmoothPoints:
    def test_appended_points_are_free_ones(self):
        m = multiplicity_sequence(CharacteristicExponents(5, (7,)))
        ext = append_smooth_points(m, 3)
        assert ext.points[: len(m.points)] == m.points
        assert len(ext.points) == len(m.points) + 3
        for p in ext.points[len(m.points):]:
            assert p.multiplicity == 1
            assert p.kind is PointKind.FREE

    def test_zero_is_identity(self):
        m = multiplicity_sequence(CharacteristicExponents(4, (6, 7)))
        assert append_smooth_points(m, 0) == m

    def test_negative_rejected(self):
        m = multiplicity_sequence(CharacteristicExponents(2, (3,)))
        with pytest.raises(DomainError):
            append_smooth_points(m, -1)


class TestRuns:
    def test_long_chain_is_four_runs(self):
        m = multiplicity_sequence(CharacteristicExponents(2, (6001,)))
        assert m.runs == (
            Run(2, 1, PointKind.ORIGIN, 1),
            Run(2, 2999, PointKind.FREE, 1),
            Run(1, 1, PointKind.FREE, 1),
            Run(1, 1, PointKind.SATELLITE, 1),
        )
        assert len(m.points) == 3002

    def test_adjacent_equal_runs_merge_and_empty_runs_drop(self):
        o, f, s = PointKind.ORIGIN, PointKind.FREE, PointKind.SATELLITE
        merged = MultiplicitySequence(
            (Run(3, 1, o, 1), Run(1, 1, f, 1), Run(1, 0, s, 1), Run(1, 2, f, 1))
        )
        assert merged.runs == (Run(3, 1, o, 1), Run(1, 3, f, 1))
        assert merged.points == MultiplicitySequence(merged.runs).points

    def test_appending_extends_one_run(self):
        m = multiplicity_sequence(CharacteristicExponents(5, (7,)))
        twice = append_smooth_points(append_smooth_points(m, 2), 3)
        assert twice == append_smooth_points(m, 5)
        assert len(twice.runs) == len(m.runs) + 1

    def test_malformed_runs_rejected(self):
        o, f = PointKind.ORIGIN, PointKind.FREE
        for runs in (
            (Run(1, 1, f, 1),),
            (Run(3, 2, o, 1),),
            (Run(3, 1, o, 1), Run(2, 1, o, 1)),
            (Run(3, 1, o, 1), Run(0, 1, f, 1)),
            (Run(3, 1, o, 1), Run(1, -1, f, 1)),
        ):
            with pytest.raises(InternalInvariantViolation):
                MultiplicitySequence(runs)

    def test_expansion_is_capped(self):
        m = multiplicity_sequence(CharacteristicExponents(2, (10**18 + 1,)))
        assert m.sum_total() == 10**18 + 2
        with pytest.raises(DomainError, match="SIEVE_LIMIT"):
            m.points


class TestStageSplit:
    """A stage's runs, by the definition of free and satellite, at int64 scale."""

    @given(
        st.one_of(st.integers(2, 64), st.integers(2, INT64_MAX)),
        st.one_of(st.integers(1, 64), st.integers(1, INT64_MAX)),
        st.integers(1, 4),
    )
    def test_split_of_any_key(self, b, a, stage):
        assume(a % b and (stage > 1 or a > b))
        runs = _mark_stage(a, b, stage)
        order = [PointKind.ORIGIN, PointKind.FREE, PointKind.SATELLITE]
        kinds = [r.kind for r in runs]
        assert kinds == sorted(kinds, key=order.index)
        assert all(r.stage == stage and r.count > 0 for r in runs)
        origins = [r for r in runs if r.kind is PointKind.ORIGIN]
        assert origins == ([Run(b, 1, PointKind.ORIGIN, 1)] if stage == 1 else [])

        def total(kind):
            return sum(r.multiplicity * r.count for r in runs if r.kind is kind)

        assert total(PointKind.FREE) == (a - b if stage == 1 else a)
        assert total(PointKind.SATELLITE) == b - math.gcd(a, b)
        merged: list[tuple[int, int]] = []
        for r in runs:
            if merged and merged[-1][0] == r.multiplicity:
                merged[-1] = (r.multiplicity, merged[-1][1] + r.count)
            else:
                merged.append((r.multiplicity, r.count))
        assert merged == _euclid_runs(a, b)

    @pytest.mark.parametrize("a, b", [(6, 3), (5, 0)])
    def test_key_without_a_split_is_an_internal_violation(self, a, b):
        with pytest.raises(InternalInvariantViolation, match="stage 2"):
            _mark_stage(a, b, 2)
