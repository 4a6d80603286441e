"""The identity table: one order, one rule, shared by every caller."""

from __future__ import annotations

import dataclasses
import multiprocessing
from types import SimpleNamespace

import pytest

import branch_invariants
import branch_invariants.combinatorics as comb
import branch_invariants.invariants as inv
import branch_invariants.resolution as res
import branch_invariants.selfcheck as sc
from branch_invariants import (
    CharacteristicExponents,
    DomainError,
    EnumerationBounds,
    InternalInvariantViolation,
    MultiplicitySequence,
    NegativeGapCountError,
    PointKind,
    SemigroupGenerators,
    append_smooth_points,
    differential_gap_count,
    evaluate_class,
    full_report,
    multiplicity_sequence,
    report_gap_count,
    run_identity_suite,
    semigroup_from_char_exponents,
)
from branch_invariants.cli import main
from branch_invariants.enumeration import (
    CHECK_NAMES,
    ONE_PAIR_CHECK,
    THREADS_ENV_VAR,
    _CHECK_ROWS,
)
from branch_invariants.invariants import IDENTITIES, _evaluate
from branch_invariants.resolution import Run
from test_sweep_shards import forks

ROW_NAMES = [name for name, _ in IDENTITIES]


def test_table_order_is_pinned():
    assert ROW_NAMES == [
        "semigroup_round_trip",
        "gcd_chain_consistency",
        "conductor_sieve_agreement",
        "semigroup_symmetry",
        "multiplicity_total_sum",
        "multiplicity_free_sum",
        "multiplicity_satellite_sum",
        "milnor_vs_conductor",
        "tau_min_double_computation",
        "tau_min_lower_bound",
        "dimca_greuel_margin",
        "gap_count_double_computation",
        "zariski_one_pair",
    ]


def test_every_sweep_check_maps_to_a_row():
    assert tuple(_CHECK_ROWS) == CHECK_NAMES
    for check in CHECK_NAMES:
        assert _CHECK_ROWS[check] in ROW_NAMES, check
    assert ONE_PAIR_CHECK in ROW_NAMES


def test_check_prints_table_order(capsys):
    assert main(["check", "--max-mult", "4", "--max-beta", "12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(line.startswith("ok   ") for line in lines)
    printed = [line[len("ok   "):] for line in lines]
    assert printed == ROW_NAMES + ["resolution_invariance", "sigma_pointwise_bound"]


class TestBrokenLowerBound:
    """A bound one too high must be caught by the same row everywhere."""

    @pytest.fixture(autouse=True)
    def broken_bound(self, monkeypatch):
        orig = inv.tjurina_lower_bound
        monkeypatch.setattr(inv, "tjurina_lower_bound", lambda n: orig(n) + 1)

    def test_full_report_names_the_identity(self):
        with pytest.raises(InternalInvariantViolation, match="tau_min_lower_bound"):
            full_report(CharacteristicExponents(2, (3,)))

    def test_evaluate_class_records_the_identity(self):
        rec = evaluate_class(CharacteristicExponents(2, (3,)))
        assert rec.report is None and rec.semigroup is None
        assert "tau_min_lower_bound" in rec.error
        assert set(rec.checks) == set(CHECK_NAMES) | {ONE_PAIR_CHECK}
        assert not any(rec.checks.values())
        assert not rec.passed

    def test_check_reports_the_identity(self, capsys):
        code = main(["check", "--max-mult", "4", "--max-beta", "12"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL tau_min_lower_bound" in out
        assert out.endswith("first failing identity: tau_min_lower_bound\n")


def test_dimca_greuel_rule_counts_free_slack():
    check = dict(IDENTITIES)["dimca_greuel_margin"]
    c = CharacteristicExponents(5, (7,))  # 2n - 3 = 7
    # mu = 24, tau_min = 20: margin 4 tau_min - 3 mu = 8
    values = SimpleNamespace(c=c, mu=24, tau_min=20, free_slack=1)
    assert check(values) is None
    values.free_slack = 2  # 8 >= 2n - 3 alone, but not with the slack
    assert check(values) == "margin 8"
    values.mu, values.tau_min, values.free_slack = 24, 18, -100
    assert check(values) == "margin 0"  # never passes unless positive


C_467 = CharacteristicExponents(4, (6, 7))  # <4, 6, 13>, conductor 16, tau_min 14
SEQ_467 = multiplicity_sequence(C_467)


# (row, field of the pass, value put there, the row's detail then)
ROW_DETAILS = [
    ("gcd_chain_consistency", "s", SemigroupGenerators((4, 5)), "(4, 1) vs (4, 2, 1)"),
    ("conductor_sieve_agreement", "conductor", 17,
     "conductor formula gave 17 for <4, 6, 13> but 16 is not a gap"),
    ("conductor_sieve_agreement", "conductor", 12,
     "conductor formula gave 12 for <4, 6, 13> but a larger gap exists"),
    ("milnor_vs_conductor", "mu", 18, "mu 18 vs conductor 16"),
    ("tau_min_double_computation", "tau_min", 15, "closed 15 vs recombined 14"),
    ("multiplicity_total_sum", "seq", append_smooth_points(SEQ_467, 1), "sum 11"),
    ("multiplicity_free_sum", "seq", append_smooth_points(SEQ_467, 1), "free sum 4"),
    ("multiplicity_satellite_sum", "seq",
     MultiplicitySequence(SEQ_467.runs + (Run(1, 1, PointKind.SATELLITE, 2),)),
     "satellite sum 4"),
]


@pytest.mark.parametrize("row, field, value, detail", ROW_DETAILS)
def test_failing_row_gives_its_detail(row, field, value, detail):
    check = dict(IDENTITIES)[row]
    v = _evaluate(C_467, {})
    assert check(v) is None
    setattr(v, field, value)
    assert check(v) == detail


@pytest.mark.parametrize(
    "module, attr, identity",
    [
        (inv, "_generator_step", "semigroup_round_trip"),
        (inv, "_mark_stage", "multiplicity_total_sum"),
        (inv, "_read_sieve", "conductor_sieve_agreement"),
        (inv, "_minimal_tjurina_formula", "tau_min_double_computation"),
    ],
)
def test_error_in_the_pass_is_charged_to_its_step(monkeypatch, module, attr, identity):
    def broken(*args):
        raise InternalInvariantViolation(f"{attr} broke")

    monkeypatch.setattr(module, attr, broken)
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # not under test here
    results = run_identity_suite(EnumerationBounds(3, 10))
    assert [r.name for r in results if not r.passed] == [identity]
    failed = next(r for r in results if not r.passed)
    assert failed.detail == f"first failure at (2; 3): {attr} broke"


def test_table_concatenates_the_module_rows():
    assert IDENTITIES[1:4] == comb.SEMIGROUP_IDENTITIES
    assert IDENTITIES[4:7] == res.SEQUENCE_IDENTITIES


# each self-checking function, the row it runs, and where that row lives
SELF_CHECKS = [
    (comb, "SEMIGROUP_IDENTITIES", "conductor_sieve_agreement", "conductor"),
    (comb, "SEMIGROUP_IDENTITIES", "conductor_sieve_agreement", "gap_count"),
    (comb, "SEMIGROUP_IDENTITIES", "semigroup_symmetry", "gap_count"),
    (res, "SEQUENCE_IDENTITIES", "multiplicity_total_sum", "multiplicity_sequence"),
    (res, "SEQUENCE_IDENTITIES", "multiplicity_free_sum", "multiplicity_sequence"),
    (res, "SEQUENCE_IDENTITIES", "multiplicity_satellite_sum", "multiplicity_sequence"),
    (inv, "IDENTITIES", "tau_min_double_computation", "minimal_tjurina"),
    (inv, "IDENTITIES", "tau_min_double_computation", "differential_gap_count"),
    (inv, "IDENTITIES", "tau_min_double_computation", "report_gap_count"),
    (inv, "IDENTITIES", "gap_count_double_computation", "differential_gap_count"),
    (inv, "IDENTITIES", "gap_count_double_computation", "report_gap_count"),
]


@pytest.mark.parametrize("module, table, row, function", SELF_CHECKS)
def test_self_checks_run_the_table_rows(monkeypatch, module, table, row, function):
    c = CharacteristicExponents(4, (6, 7))
    argument = {
        "conductor": semigroup_from_char_exponents(c),
        "gap_count": semigroup_from_char_exponents(c),
        "multiplicity_sequence": c,
        "minimal_tjurina": multiplicity_sequence(c),
        "differential_gap_count": multiplicity_sequence(c),
        "report_gap_count": full_report(c),
    }[function]
    rows = getattr(module, table)
    assert row in dict(rows)
    forced = tuple((name, (lambda v: "forced") if name == row else check)
                   for name, check in rows)
    monkeypatch.setattr(module, table, forced)
    with pytest.raises(InternalInvariantViolation, match=f"{row} failed: forced"):
        getattr(branch_invariants, function)(argument)


def test_negative_gap_count_is_its_own_error(monkeypatch):
    c = CharacteristicExponents(4, (6, 7))
    with pytest.raises(NegativeGapCountError):
        report_gap_count(dataclasses.replace(full_report(c), delta_gen_gaps=-1))
    monkeypatch.setattr(inv, "_differential_gap_formula", lambda m: -1)
    with pytest.raises(NegativeGapCountError):
        differential_gap_count(multiplicity_sequence(c))


def test_limit_error_is_not_a_failed_class():
    with pytest.raises(DomainError, match="SIEVE_LIMIT"):
        evaluate_class(CharacteristicExponents(2, (10000001,)))


@pytest.mark.parametrize("threads", [
    None,
    # workers see the patched limit only when the pool forks them
    pytest.param("2", marks=pytest.mark.skipif(
        multiprocessing.get_all_start_methods()[0] != "fork", reason="pool does not fork")),
])
@pytest.mark.parametrize("command", [["sweep", "--format", "csv"], ["check"]])
def test_limit_error_exits_2(capsys, monkeypatch, command, threads):
    monkeypatch.setattr(comb, "SIEVE_LIMIT", 40)
    if threads:
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
    assert main([*command, "--max-mult", "4", "--max-beta", "30"]) == 2
    err = capsys.readouterr().err
    assert err == "error: membership sieve of 41 cells exceeds the limit of 40 (SIEVE_LIMIT)\n"


def slipped_inverse(s):
    """The inverse map with beta_{i+1} = n_i v_i - v_{i+1} + beta_i: (4; 6, 7) comes back as (4; 6, 5)."""
    beta = [s.gens[1]]
    for i in range(1, s.g):
        beta.append(s.multipliers[i - 1] * s.gens[i] - s.gens[i + 1] + beta[i - 1])
    return s.gens[0], tuple(beta)


def forgetful_step(carry, e, b, e_next):
    """The generator step without its + b past v_1: (4; 6, 7) goes to <4, 6, 6>, which is not plane.

    Every class of two pairs or more is refused at its second generator,
    acc/e_1 = (n_1 - 1) beta_1, so the accumulator it leaves is never read.
    """
    return comb._generator_step(carry, e, b if len(carry[0]) == 1 else 0, e_next)


# (function of invariants, its mutant, what the round trip then reports on (4; 6, 7))
ROUND_TRIP_MUTANTS = [
    ("_exponents_from_generators", slipped_inverse, "came back different through <4, 6, 13>"),
    ("_generator_step", forgetful_step, "not a plane-branch semigroup: 2 * 6 = 12 is not < 6"),
]


@pytest.mark.parametrize("attr, mutant, detail", ROUND_TRIP_MUTANTS)
def test_a_round_trip_bug_exits_3_naming_the_row(capsys, monkeypatch, attr, mutant, detail):
    monkeypatch.setattr(inv, attr, mutant)
    assert main(["invariants", "--char-exponents", "4:6,7"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"internal invariant violation: (4; 6, 7): semigroup_round_trip failed: {detail}\n"
    )


@pytest.mark.parametrize("threads", [None, pytest.param("2", marks=forks)])
@pytest.mark.parametrize("attr, mutant, detail", ROUND_TRIP_MUTANTS)
def test_a_round_trip_bug_fails_check(capsys, monkeypatch, attr, mutant, detail, threads):
    monkeypatch.setattr(inv, attr, mutant)
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # not under test here
    if threads:
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
    # (4, 12) has 17 prefixes: three pool tasks
    assert main(["check", "--max-mult", "4", "--max-beta", "12"]) == 1
    out = capsys.readouterr().out
    if attr == "_generator_step":  # raised in the pass, not by the row
        detail = f"(4; 6, 7): semigroup_round_trip failed: {detail}"
    assert [line for line in out.splitlines() if not line.startswith("ok ")] == [
        f"FAIL semigroup_round_trip: first failure at (4; 6, 7): {detail}",
        "first failing identity: semigroup_round_trip",
    ]


def test_a_forward_map_error_is_chained_to_the_round_trip(monkeypatch):
    monkeypatch.setattr(inv, "_generator_step", forgetful_step)
    with pytest.raises(InternalInvariantViolation) as info:
        _evaluate(CharacteristicExponents(4, (6, 7)), {})
    assert info.value.identity == "semigroup_round_trip"
    assert isinstance(info.value.__cause__, branch_invariants.NotPlaneError)
