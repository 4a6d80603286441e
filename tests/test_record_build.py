"""Records built on the per-class path are the records the public constructors build.

The sweep sets the fields of each InvariantReport and SweepRecord in one
update, and CharacteristicExponents and SemigroupGenerators write their
own __init__.  Each stays a frozen dataclass: equal to the record built
field by field, with the same hash and repr, and it survives
dataclasses.replace, a pickle round trip and the trip back from a pool
worker.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from branch_invariants import (
    CharacteristicExponents,
    EnumerationBounds,
    InvariantReport,
    SemigroupGenerators,
    SweepRecord,
    enumerate_classes,
    evaluate_class,
    full_report,
    sweep,
)

BOX = EnumerationBounds(8, 40)


def rebuilt(record):
    """The record built again by its class's public constructor from its init fields."""
    fields = dataclasses.fields(record)
    return type(record)(*(getattr(record, f.name) for f in fields if f.init))


def assert_same_record(built, public):
    assert type(built) is type(public)
    assert built == public and public == built
    assert hash(built) == hash(public)
    assert repr(built) == repr(public)
    assert [getattr(built, f.name) for f in dataclasses.fields(built)] == \
        [getattr(public, f.name) for f in dataclasses.fields(public)]
    assert vars(built) == vars(public)


def test_every_record_of_a_box_is_the_one_its_constructor_builds():
    records = sweep(BOX, workers=1)[0]
    assert len(records) == 569
    for rec in records:
        assert rec.error is None
        assert_same_record(rec, rebuilt(rec))
        assert_same_record(rec.report, rebuilt(rec.report))
        assert_same_record(rec.report, full_report(rec.char_exponents))
        assert_same_record(rec, evaluate_class(rec.char_exponents))
        c, s = rec.char_exponents, rec.semigroup
        assert_same_record(c, CharacteristicExponents(c.n, list(c.beta)))
        assert_same_record(s, SemigroupGenerators(list(s.gens)))


def test_records_survive_pickle_and_the_pool():
    serial = sweep(BOX, workers=1)[0]
    pooled = sweep(BOX, workers=2)[0]
    assert pooled == serial
    for rec in serial[::7]:
        back = pickle.loads(pickle.dumps(rec))
        assert_same_record(back, rec)
        assert_same_record(back.report, rec.report)
        assert back.char_exponents.stage_keys == rec.char_exponents.stage_keys
        assert back.semigroup.multipliers == rec.semigroup.multipliers


@pytest.mark.parametrize("c", list(enumerate_classes(EnumerationBounds(5, 16)))[::5], ids=str)
def test_replace_builds_each_record_again(c):
    rec = evaluate_class(c)
    report = dataclasses.replace(rec.report, mu=rec.report.mu + 2)
    assert type(report) is InvariantReport and report.mu == rec.report.mu + 2
    assert dataclasses.replace(report, mu=rec.report.mu) == rec.report
    failed = dataclasses.replace(rec, report=None, error="failed")
    assert type(failed) is SweepRecord and not failed.passed
    assert dataclasses.replace(failed, report=rec.report, error=None) == rec
    # beta_g + n is a last exponent too: e_{g-1} divides n
    moved = dataclasses.replace(c, beta=c.beta[:-1] + (c.beta[-1] + c.n,))
    assert_same_record(moved, CharacteristicExponents(c.n, c.beta[:-1] + (c.beta[-1] + c.n,)))
    assert_same_record(dataclasses.replace(c), c)
    assert_same_record(dataclasses.replace(rec.semigroup), rec.semigroup)


def test_a_written_out_init_keeps_the_dataclass_contract():
    c = CharacteristicExponents(n=4, beta=[6, 7])
    assert c.beta == (6, 7) and c.gcd_chain == (4, 2, 1) and c.stage_keys == ((6, 4, 1), (1, 2, 2))
    assert [f.name for f in dataclasses.fields(c)] == ["n", "beta", "gcd_chain", "stage_keys"]
    assert repr(c) == "CharacteristicExponents(n=4, beta=(6, 7))"
    s = SemigroupGenerators(gens=[4, 6, 13])
    assert s.gcd_chain == (4, 2, 1) and s.multipliers == (2, 2)
    assert repr(s) == "SemigroupGenerators(gens=(4, 6, 13))"
    for record, field in ((c, "n"), (s, "gens"), (full_report(c), "mu"), (evaluate_class(c), "error")):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field, None)
