"""A broken formula is a named failure, not a crash.

A conductor formula that returns 0 or a negative value must still reach
the conductor_sieve_agreement row: the membership sieve answers an empty
range for a limit <= 0, and the gap count reads the sieve below max(c, 0),
so neither asks for a negative shift.  The raises that no identity row
covers (the round trip of char_exponents_from_semigroup, the parity of
the Milnor number, the remainder of exact_div) name what broke.
"""

from __future__ import annotations

import pytest

import branch_invariants.combinatorics as comb
import branch_invariants.invariants as inv
import branch_invariants.selfcheck as sc
from branch_invariants import (
    CharacteristicExponents,
    InternalInvariantViolation,
    SemigroupGenerators,
    char_exponents_from_semigroup,
    conductor,
    milnor_number,
    multiplicity_sequence,
)
from branch_invariants.cli import main
from branch_invariants.errors import exact_div

# each broken conductor formula, as a function of the multiplicity n
BROKEN_CONDUCTORS = {
    "zero": lambda n: 0,
    "minus n": lambda n: -n,  # the sieve's limit c + n is 0
    "minus n minus 5": lambda n: -n - 5,  # the sieve's limit is negative
}


@pytest.fixture(params=list(BROKEN_CONDUCTORS))
def broken(request):
    return BROKEN_CONDUCTORS[request.param]


def break_pass_conductor(monkeypatch, broken):
    """The evaluation pass's conductor is broken(n): the last generator step of a class carries it."""
    real = inv._generator_step

    def step(carry, e, b, e_next):
        gens, chain, mult, acc, partial = real(carry, e, b, e_next)
        return gens, chain, mult, acc, broken(gens[0]) if e_next == 1 else partial

    monkeypatch.setattr(inv, "_generator_step", step)


def test_invariants_exits_3_naming_the_row(capsys, monkeypatch, broken):
    break_pass_conductor(monkeypatch, broken)
    assert main(["invariants", "--pair", "5,7"]) == 3
    c = broken(5)
    assert capsys.readouterr().err == (
        "internal invariant violation: (5; 7): conductor_sieve_agreement failed: "
        f"conductor formula gave {c} for <5, 7> but {c - 1} is not a gap\n"
    )


def test_check_prints_the_failing_row(capsys, monkeypatch, broken):
    break_pass_conductor(monkeypatch, broken)
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # not under test here
    assert main(["check", "--max-mult", "4", "--max-beta", "12"]) == 1
    out = capsys.readouterr().out
    assert "\nFAIL conductor_sieve_agreement: " in out
    assert out.endswith("first failing identity: conductor_sieve_agreement\n")


def test_public_conductor_raises_the_violation(monkeypatch, broken):
    monkeypatch.setattr(comb, "_conductor_formula", lambda s: broken(s.n))
    c = broken(5)
    with pytest.raises(InternalInvariantViolation, match=(
            f"^<5, 7>: conductor_sieve_agreement failed: conductor formula gave {c} "
            f"for <5, 7> but {c - 1} is not a gap$")):
        conductor(SemigroupGenerators((5, 7)))


@pytest.fixture
def forward_map_off_by_one(monkeypatch):
    """The forward map gives <n, beta_1 + 1>, so no semigroup comes back as it went in."""
    monkeypatch.setattr(comb, "semigroup_from_char_exponents",
                        lambda c: SemigroupGenerators((c.n, c.beta[0] + 1)))


def test_round_trip_names_both_semigroups(forward_map_off_by_one):
    with pytest.raises(InternalInvariantViolation,
                       match=r"^round trip through exponents changed <5, 7> into <5, 8>$"):
        char_exponents_from_semigroup(SemigroupGenerators((5, 7)))


def test_round_trip_failure_exits_3(capsys, forward_map_off_by_one):
    assert main(["invariants", "--semigroup", "5,7"]) == 3
    assert capsys.readouterr().err == (
        "internal invariant violation: round trip through exponents changed <5, 7> into <5, 8>\n"
    )


def test_an_odd_milnor_number_raises(monkeypatch):
    m = multiplicity_sequence(CharacteristicExponents(5, (7,)))
    assert milnor_number(m) == 24
    orig = inv._run_sum
    monkeypatch.setattr(inv, "_run_sum", lambda m, term: orig(m, term) + 1)
    with pytest.raises(InternalInvariantViolation, match="^Milnor number 25 is odd$"):
        milnor_number(m)


def test_exact_div_names_the_remainder():
    assert exact_div(8, 2, "x") == 4
    with pytest.raises(InternalInvariantViolation, match="^x: 7 is not divisible by 2$"):
        exact_div(7, 2, "x")
