"""A wrong carry down the enumeration tree, or a wrong stage record, is a named failure.

A class is its parent node's generator carry plus one exponent: the
generators and the conductor's partial sum are made once per prefix node
and shared by the classes under it, and a stage's record is made once
per stage table and shared by every class with that stage.  Each mutant
below breaks one of them in process, and `check` over (8, 40) must exit
1 naming the row that sees it, with the same output serially and from
forked pool workers.  A walk whose one-step check lets through an
exponent that e_k divides is caught by the brute-force oracle.
"""

from __future__ import annotations

import multiprocessing

import pytest

import branch_invariants.enumeration as en
import branch_invariants.invariants as inv
import branch_invariants.selfcheck as sc
from branch_invariants import EnumerationBounds, enumerate_classes
from branch_invariants.cli import main
from branch_invariants.enumeration import THREADS_ENV_VAR
from oracles import brute_force_classes

forks = pytest.mark.skipif(
    multiprocessing.get_all_start_methods()[0] != "fork", reason="pool does not fork"
)

real_step, real_run_sums = inv._generator_step, inv._run_sums
TAU_MIN = inv._SUM_NAMES.index("tau_min")  # its place among a stage record's _SUM_NAMES sums


def leaf_generator_plus_one(carry, e, b, e_next):
    """The generator step, its last generator one too large where the chain reaches 1."""
    gens, chain, mult, acc, partial = real_step(carry, e, b, e_next)
    if e_next == 1:
        gens = gens[:-1] + (gens[-1] + 1,)
    return gens, chain, mult, acc, partial


def node_partial_plus_one(carry, e, b, e_next):
    """The generator step, the conductor's partial sum one too large at a node above a class."""
    gens, chain, mult, acc, partial = real_step(carry, e, b, e_next)
    return gens, chain, mult, acc, partial + (e_next > 1)


def stage_tau_min_plus_one(runs):
    """A stage's sums, its tau_min sum one too large past stage 1, kept in the stage table."""
    sums = real_run_sums(runs)
    if runs[0].stage > 1:
        sums = sums[:TAU_MIN] + (sums[TAU_MIN] + 1,) + sums[TAU_MIN + 1:]
    return sums


# (attribute of invariants, its mutant, the row that must name it)
CARRY_MUTANTS = [
    ("_generator_step", leaf_generator_plus_one, "semigroup_round_trip"),
    ("_generator_step", node_partial_plus_one, "conductor_sieve_agreement"),
    ("_run_sums", stage_tau_min_plus_one, "tau_min_double_computation"),
]


def check_output(capsys, monkeypatch, threads):
    if threads:
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
    else:
        monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    code = main(["check", "--max-mult", "8", "--max-beta", "40"])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("attr, mutant, row", CARRY_MUTANTS, ids=lambda x: getattr(x, "__name__", x))
@pytest.mark.parametrize("threads", [None, pytest.param("2", marks=forks)])
def test_a_broken_carry_fails_its_row(capsys, monkeypatch, attr, mutant, row, threads):
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # not under test here
    monkeypatch.setattr(inv, attr, mutant)
    code, out = check_output(capsys, monkeypatch, threads)
    assert code == 1
    lines = out.splitlines()
    assert f"FAIL {row}: first failure at (" in out
    assert lines[-1] == f"first failing identity: {row}"
    assert len([line for line in lines if line.startswith(("ok ", "FAIL "))]) == 15


@forks
@pytest.mark.parametrize("attr, mutant, row", CARRY_MUTANTS, ids=lambda x: getattr(x, "__name__", x))
def test_a_broken_carry_reads_the_same_from_the_pool(capsys, monkeypatch, attr, mutant, row):
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)
    monkeypatch.setattr(inv, attr, mutant)
    assert check_output(capsys, monkeypatch, None) == check_output(capsys, monkeypatch, "2")


def test_a_one_step_check_that_skips_divisibility_is_caught_by_the_oracle(monkeypatch):
    bounds = EnumerationBounds(6, 18)
    want = brute_force_classes(6, 18)
    assert [(c.n, c.beta) for c in enumerate_classes(bounds)] == want
    monkeypatch.setattr(en, "_admissible_after", lambda e, exponents: iter(exponents))
    got = [(c.n, c.beta) for c in enumerate_classes(bounds)]
    assert got != want
    assert (4, (6, 8, 9)) in got and (4, (6, 8, 9)) not in want  # 8 is divisible by e_1 = 2
