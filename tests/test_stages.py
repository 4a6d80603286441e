"""A stage table lives for one call: patches made between calls take effect."""

from __future__ import annotations

from fractions import Fraction

import branch_invariants.invariants as inv
import branch_invariants.selfcheck as sc
from branch_invariants import EnumerationBounds, sweep
from branch_invariants.cli import main


def break_sigma(monkeypatch):
    """The even sigma term one too small, as test_broken_sigma_is_caught has it."""
    orig = inv.moduli_dim_term

    def broken(k):
        return orig(k) - 1 if k % 2 == 0 else orig(k)

    monkeypatch.setattr(inv, "moduli_dim_term", broken)
    monkeypatch.setattr(sc, "moduli_dim_term", broken)


def test_check_fills_a_new_table_per_call(capsys, monkeypatch):
    assert main(["check", "--max-mult", "4", "--max-beta", "12"]) == 0
    capsys.readouterr()
    break_sigma(monkeypatch)
    assert main(["check", "--max-mult", "4", "--max-beta", "12"]) == 1
    assert capsys.readouterr().out.endswith("first failing identity: tau_min_double_computation\n")


def test_broken_identity_in_invariants_exits_3(capsys, monkeypatch):
    break_sigma(monkeypatch)
    assert main(["invariants", "--char-exponents", "4:6,7"]) == 3
    assert capsys.readouterr() == ("", "internal invariant violation: (4; 6, 7): "
                                       "tau_min_double_computation failed: "
                                       "closed 14 vs recombined 11\n")


def test_broken_sigma_fails_the_double_computation_on_one_pair(capsys, monkeypatch):
    # tau_min of (5; 7) stays above its lower bound of 18 either way, so only the
    # double computation can see the break
    break_sigma(monkeypatch)
    assert main(["invariants", "--pair", "5,7"]) == 3
    assert capsys.readouterr() == ("", "internal invariant violation: (5; 7): "
                                       "tau_min_double_computation failed: "
                                       "closed 21 vs recombined 20\n")


def test_sweep_fills_a_new_table_per_call(monkeypatch):
    bounds = EnumerationBounds(4, 12)
    assert sweep(bounds, workers=1)[1].failed == 0
    break_sigma(monkeypatch)
    records, summary = sweep(bounds, workers=1)
    failed = [rec for rec in records if not rec.passed]
    assert summary.failed == len(failed) > 0
    assert "tau_min_double_computation failed" in failed[0].error


def test_shards_join_in_order():
    serial = sweep(EnumerationBounds(8, 40), workers=1)
    assert len(serial[0]) > 8  # more classes than two workers have shards
    assert serial == sweep(EnumerationBounds(8, 40), workers=2)


def test_max_quotient_is_the_largest_reduced_quotient():
    records, summary = sweep(EnumerationBounds(8, 40), workers=1)
    quotients = [Fraction(r.report.quotient_num, r.report.quotient_den) for r in records]
    assert summary.max_quotient == max(quotients)
