"""Class enumeration and sweep behavior."""

from __future__ import annotations

import dataclasses

import pytest

from branch_invariants import (
    CharacteristicExponents,
    DomainError,
    EnumerationBounds,
    enumerate_classes,
    evaluate_class,
    sweep,
)
from branch_invariants.enumeration import (
    CHECK_NAMES,
    ONE_PAIR_CHECK,
    THREADS_ENV_VAR,
    SweepRecord,
    _worker_count,
)
from oracles import brute_force_classes
from test_stages import break_sigma


def classes(max_mult, max_beta, max_pairs=None):
    return list(
        enumerate_classes(EnumerationBounds(max_mult, max_beta, max_pairs))
    )


class TestBounds:
    def test_rejects_bad_boxes(self):
        with pytest.raises(DomainError):
            EnumerationBounds(1, 10)
        with pytest.raises(DomainError):
            EnumerationBounds(4, 4)
        with pytest.raises(DomainError):
            EnumerationBounds(4, 10, 0)


class TestEnumerate:
    def test_pinned_small_boxes(self):
        assert [(c.n, c.beta) for c in classes(2, 10)] == [
            (2, (3,)), (2, (5,)), (2, (7,)), (2, (9,)),
        ]
        assert len(classes(3, 10)) == 9
        assert [(c.n, c.beta) for c in classes(2, 3)] == [(2, (3,))]

    def test_matches_brute_force(self):
        got = [(c.n, c.beta) for c in classes(6, 30)]
        assert got == brute_force_classes(6, 30)

    def test_max_pairs(self):
        got = [(c.n, c.beta) for c in classes(6, 30, 1)]
        assert got == brute_force_classes(6, 30, 1)
        assert all(len(beta) == 1 for _, beta in got)
        assert (4, (6, 7)) in brute_force_classes(6, 30)
        assert (4, (6, 7)) not in got

    def test_lexicographic_and_duplicate_free(self):
        got = [(c.n, c.beta) for c in classes(8, 40)]
        assert got == sorted(got)
        assert len(got) == len(set(got))

    def test_all_valid(self):
        for c in classes(8, 40):
            assert c.gcd_chain[-1] == 1
            assert c.n <= 8 and c.beta[-1] <= 40


class TestEvaluate:
    def test_check_names(self):
        rec = evaluate_class(CharacteristicExponents(5, (7,)))
        assert set(rec.checks) == set(CHECK_NAMES) | {ONE_PAIR_CHECK}
        rec = evaluate_class(CharacteristicExponents(4, (6, 7)))
        assert set(rec.checks) == set(CHECK_NAMES)
        assert rec.passed and rec.error is None

    def test_report_values(self):
        rec = evaluate_class(CharacteristicExponents(4, (6, 7)))
        assert rec.semigroup.gens == (4, 6, 13)
        assert (rec.report.mu, rec.report.tau_min) == (16, 14)


class TestSweep:
    def test_all_green(self):
        records, summary = sweep(EnumerationBounds(8, 40))
        assert summary.classes == len(records) == 569
        assert summary.failed == 0
        assert all(rec.passed for rec in records)

    def test_summary_quotient(self):
        records, summary = sweep(EnumerationBounds(6, 24))
        from fractions import Fraction

        best = max(
            Fraction(rec.report.quotient_num, rec.report.quotient_den)
            for rec in records
        )
        assert summary.max_quotient == best < Fraction(4, 3)

    def test_deterministic(self):
        first = sweep(EnumerationBounds(6, 24))
        second = sweep(EnumerationBounds(6, 24))
        assert first == second

    def test_parallel_matches_serial(self):
        serial = sweep(EnumerationBounds(6, 24), workers=1)
        parallel = sweep(EnumerationBounds(6, 24), workers=2)
        assert serial == parallel

    def test_env_var_workers(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "2")
        records, summary = sweep(EnumerationBounds(5, 20))
        monkeypatch.delenv(THREADS_ENV_VAR)
        assert (records, summary) == sweep(EnumerationBounds(5, 20))

    def test_env_var_validation(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "zero")
        with pytest.raises(DomainError):
            _worker_count()
        monkeypatch.setenv(THREADS_ENV_VAR, "0")
        with pytest.raises(DomainError):
            _worker_count()
        monkeypatch.setenv(THREADS_ENV_VAR, "3")
        assert 1 <= _worker_count() <= 3


# the checks dict a record carried as a field, in its order
TWO_PAIR_CHECKS = ["satellite_sum", "enriques_free", "enriques_total", "dimca_greuel",
                   "lower_bound", "peraire"]
ONE_PAIR_CHECKS = TWO_PAIR_CHECKS + ["zariski_one_pair"]


class TestOneOutcome:
    """error is a record's only outcome; passed and checks derive from it."""

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SweepRecord)] == [
            "char_exponents", "semigroup", "report", "error"
        ]

    @pytest.mark.parametrize("c, names", [
        (CharacteristicExponents(2, (3,)), ONE_PAIR_CHECKS),
        (CharacteristicExponents(4, (6, 7)), TWO_PAIR_CHECKS),
    ])
    @pytest.mark.parametrize("broken", [False, True])
    def test_checks_equal_the_stored_dict(self, monkeypatch, c, names, broken):
        if broken:
            break_sigma(monkeypatch)
        rec = evaluate_class(c)
        assert rec.passed is (rec.error is None) is (not broken)
        assert list(rec.checks.items()) == [(name, not broken) for name in names]
        assert (rec.report is None) is broken

    def test_records_are_hashable(self):
        records, _ = sweep(EnumerationBounds(4, 12))
        assert len(set(records)) == len(records)
