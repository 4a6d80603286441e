"""Stage records: a class's sequence is its stages' records joined, each stage checked once.

A record holds a stage's runs, checked and merged as MultiplicitySequence
does, and their sums; the evaluation pass concatenates records without
canonicalising again.  So the joined sequence must equal the canonical
one, a broken stage must still be refused, a class refused at the
conductor or the sieve must mark no stage, and the per-class work must
not creep back: each stage is marked once per table, each node of the
walk checks its next exponents once, only prefix nodes are made, each
class adds one generator to its parent's, and the integer rule runs a
bounded number of times per class.
"""

from __future__ import annotations

import cProfile
import math
from itertools import chain, combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import branch_invariants.combinatorics as comb
import branch_invariants.errors as errors
import branch_invariants.invariants as inv
import branch_invariants.resolution as res
import branch_invariants.selfcheck as sc
from branch_invariants import (
    CharacteristicExponents,
    DomainError,
    EnumerationBounds,
    InternalInvariantViolation,
    MultiplicitySequence,
    OverflowLimitError,
    PointKind,
    Run,
    enumerate_classes,
    sweep,
)
from branch_invariants.cli import main
from branch_invariants.enumeration import THREADS_ENV_VAR, _prefixes
from branch_invariants.errors import INT64_MAX
from branch_invariants.invariants import _evaluate
from test_differential import DEEP_BETA, DEEP_MULT, classes, huge_classes
from test_sweep_shards import forks

# one table across all drawn examples, so later examples join records
# that earlier ones built
SHARED_STAGES: dict = {}


def stage_keys_reference(c: CharacteristicExponents) -> list[tuple[int, int, int]]:
    """(beta_1, n, 1), then (beta_i - beta_{i-1}, e_{i-1}, i) for each later stage."""
    e, beta = c.gcd_chain, c.beta
    return [(beta[0], c.n, 1)] + [(beta[i] - beta[i - 1], e[i], i + 1) for i in range(1, c.g)]


def sums(m: MultiplicitySequence) -> list:
    """Each of the three sequence sums of m, or the error reading it raises."""
    out = []
    for method in (m.sum_total, m.sum_free, m.sum_satellite):
        try:
            out.append(method())
        except errors.BranchInvariantError as exc:
            out.append((type(exc), str(exc)))
    return out


@settings(max_examples=200, deadline=None)
@given(st.one_of(classes(max_mult=DEEP_MULT, max_beta=DEEP_BETA), huge_classes()),
       st.booleans())
@example(CharacteristicExponents(4, (6, 7)), True)
@example(CharacteristicExponents(3, (INT64_MAX,)), False)  # refused at the conductor
@example(CharacteristicExponents(2, (4194301,)), False)  # c + n just below SIEVE_LIMIT
def test_joined_sequence_is_the_canonical_one(c, shared):
    assert c.stage_keys == tuple(stage_keys_reference(c))
    try:
        joined = _evaluate(c, SHARED_STAGES if shared else {}).seq
    except (OverflowLimitError, DomainError):
        return  # no stage is reached: see test_a_class_refused_before_its_stages_marks_none
    # the stages' runs canonicalised as one sequence, as before stage records
    raw = tuple(chain.from_iterable(res._mark_stage(*key) for key in stage_keys_reference(c)))
    for canonical in (MultiplicitySequence(joined.runs), MultiplicitySequence(raw)):
        assert joined.runs == canonical.runs
        assert joined._sums == canonical._sums
        assert sums(joined) == sums(canonical)


real_mark_stage = res._mark_stage


def zero_multiplicity_run(a, b, stage):
    """Each stage with a trailing satellite run of multiplicity 0."""
    return real_mark_stage(a, b, stage) + (Run(0, 1, PointKind.SATELLITE, stage),)


def origin_in_stage_2(a, b, stage):
    """Stage 2 and later starting at an origin point."""
    runs = real_mark_stage(a, b, stage)
    return runs if stage == 1 else (runs[0]._replace(kind=PointKind.ORIGIN),) + runs[1:]


# each mutant, the violation it must raise, and the first class of (4, 12) it breaks
MUTANTS = [
    (zero_multiplicity_run, "invalid run (0, 1, ", "(2; 3)"),
    (origin_in_stage_2, "only the first point is the origin", "(4; 6, 7)"),
]


def break_stages(monkeypatch, mutant):
    """mutant in place of _mark_stage, in the evaluation pass and in multiplicity_sequence."""
    for module in (inv, res):
        monkeypatch.setattr(module, "_mark_stage", mutant)


@pytest.mark.parametrize("mutant, message", [m[:2] for m in MUTANTS])
def test_a_broken_stage_is_refused_by_its_record(monkeypatch, mutant, message):
    break_stages(monkeypatch, mutant)
    c = CharacteristicExponents(4, (6, 7))
    for build in (lambda: _evaluate(c, {}), lambda: res.multiplicity_sequence(c)):
        with pytest.raises(InternalInvariantViolation) as info:
            build()
        assert str(info.value).startswith(message)


@pytest.mark.parametrize("mutant, message", [m[:2] for m in MUTANTS])
def test_a_broken_stage_exits_3_from_invariants(capsys, monkeypatch, mutant, message):
    break_stages(monkeypatch, mutant)
    assert main(["invariants", "--char-exponents", "4:6,7"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"internal invariant violation: {message}")


@pytest.mark.parametrize("threads", [None, pytest.param("2", marks=forks)])
@pytest.mark.parametrize("mutant, message, first", MUTANTS)
def test_a_broken_stage_fails_check(capsys, monkeypatch, mutant, message, first, threads):
    break_stages(monkeypatch, mutant)
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 10)  # the scan is not under test
    if threads:
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
    assert main(["check", "--max-mult", "4", "--max-beta", "12"]) == 1
    fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
    assert fails[0].startswith(
        f"FAIL multiplicity_total_sum: first failure at {first}: {message}")


def call_counts(run, *functions) -> list[int]:
    """How many times each of functions is called while run() runs, however it is reached."""
    profile = cProfile.Profile()
    profile.runcall(run)
    counts = {entry.code: entry.callcount for entry in profile.getstats()}
    return [counts.get(f.__code__, 0) for f in functions]


# check_int64 calls per class in a serial (8, 40) sweep: 14.7 with stage
# records (10.7 on (12, 100)), 24.1 when every generator product,
# conductor term and square was checked inline (19.0 on (12, 100))
INT_RULE_PER_CLASS = 15


def tree_nodes(max_mult: int, max_beta: int) -> int:
    """The nodes of the enumeration tree, by generate-and-filter as oracles.brute_force_classes.

    A root per prefix (n, beta_1), and each (n; beta_1, ..., beta_k) whose
    exponents are characteristic so far and whose gcd chain is still above 1.
    """
    nodes = 0
    for n in range(2, max_mult + 1):
        nodes += sum(1 for b in range(n + 1, max_beta + 1) if b % n)
        for k in range(1, n.bit_length()):
            for betas in combinations(range(n + 1, max_beta + 1), k):
                e = n
                for b in betas:
                    if b % e == 0:
                        break
                    e = math.gcd(e, b)
                else:
                    nodes += e > 1
    return nodes


def test_each_stage_and_each_class_is_prepared_once():
    bounds = EnumerationBounds(8, 40)
    box = list(enumerate_classes(bounds))
    keys = {key for c in box for key in stage_keys_reference(c)}
    parents = {(c.n, c.beta[:k]) for c in box for k in range(1, c.g)}
    roots = len(list(_prefixes(bounds)))
    marks, checks, derivations, steps, validations, int_checks = call_counts(
        lambda: sweep(bounds, workers=1),
        res._mark_stage, comb._admissible_after, inv._Prefix.__init__, comb._generator_step,
        comb._validate_exponents, errors.check_int64,
    )
    assert marks == len(keys)  # once per distinct stage key
    # a class is its node plus one exponent: the one-step check runs once per
    # node, on the node's next exponents, and nothing validates a class again
    assert checks == tree_nodes(8, 40) and validations == 0
    # a node is made once for each prefix node below a root, and none for a
    # class: a class is its parent's fields plus one entry
    assert derivations == tree_nodes(8, 40) - roots
    assert steps == len(box) + len(parents)  # one generator per class and per shared node
    assert int_checks <= INT_RULE_PER_CLASS * len(box)


# (argv, its one stderr line): refused at the sieve, and at the conductor
REFUSED_QUERIES = [
    (["invariants", "--pair", "2,10000001"],
     "error: membership sieve of 10000002 cells exceeds the limit of 4194304 (SIEVE_LIMIT)"),
    (["invariants", "--pair", "3,9223372036854775807"],
     "error: value 18446744073709551614 exceeds the signed 64-bit range"),
]


@pytest.mark.parametrize("argv, line", REFUSED_QUERIES)
def test_a_refused_query_marks_no_stage(capsys, argv, line):
    codes = []
    [marks] = call_counts(lambda: codes.append(main(argv)), res._mark_stage)
    assert (codes, marks) == ([2], 0)
    assert capsys.readouterr() == ("", line + "\n")


@settings(max_examples=200, deadline=None)
@given(huge_classes())
@example(CharacteristicExponents(2, (10000001,)))  # refused at the sieve
@example(CharacteristicExponents(3, (INT64_MAX,)))  # refused at the conductor
def test_a_class_refused_before_its_stages_marks_none(c):
    table: dict = {}
    try:
        _evaluate(c, table)
    except (OverflowLimitError, DomainError):
        assert table == {}
    else:
        assert set(c.stage_keys) <= set(table)
