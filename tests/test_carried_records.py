"""A class grown from its parent node is the class the public constructors build.

The walk builds each class record from its node, the parent's exponents,
gcd chain and stage keys plus one entry, and the evaluation pass grows
the class's semigroup from the node's generator carry.  Neither is
validated again, so every record must equal the one
validate_char_exponents builds, in its computed fields too, with the
same hash, repr and pickle, and hold no node; and every semigroup must
equal semigroup_from_char_exponents(c) and the validated generators.
The evaluation pass of a class from its parent node, on a stage table
shared with other classes, must equal the pass of the class alone, on a
table of its own.  The (16, 100) box is the first pinned one with
classes of four pairs.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from branch_invariants import (
    EnumerationBounds,
    SemigroupGenerators,
    semigroup_from_char_exponents,
    sweep,
    validate_char_exponents,
)
from branch_invariants.cli import CSV_COLUMNS, _csv_line
from branch_invariants.enumeration import _prefixes, _subtrees
from branch_invariants.invariants import _evaluate
from test_record_build import assert_same_record

PINNED = json.loads((Path(__file__).parent / "expected_sweeps.json").read_text(encoding="utf-8"))


def assert_carried_records(records) -> None:
    for rec in records:
        assert rec.error is None
        c, s = rec.char_exponents, rec.semigroup
        public = validate_char_exponents(c.n, list(c.beta))
        assert_same_record(c, public)  # vars too: gcd_chain and stage_keys, and no node
        assert (c.gcd_chain, c.stage_keys) == (public.gcd_chain, public.stage_keys)
        assert pickle.dumps(c) == pickle.dumps(public)
        assert_same_record(pickle.loads(pickle.dumps(c)), public)
        for ref in (semigroup_from_char_exponents(public), SemigroupGenerators(s.gens)):
            assert (s.gens, s.gcd_chain, s.multipliers) == (ref.gens, ref.gcd_chain, ref.multipliers)
            assert_same_record(s, ref)


boxes = st.integers(2, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(n + 1, 45), st.one_of(st.none(), st.integers(1, 3))))


@settings(max_examples=40, deadline=None)
@given(boxes)
def test_every_carried_record_is_the_validated_one(box):
    assert_carried_records(sweep(EnumerationBounds(*box), workers=1)[0])


# one stage table for every class of every drawn box, as a sweep shares one
SHARED_STAGES: dict = {}


def assert_same_pass(got, want) -> None:
    """Two evaluation passes equal attribute by attribute, and so their class, semigroup and sequence."""
    assert vars(got).keys() == vars(want).keys()
    for name, value in vars(want).items():
        assert getattr(got, name) == value, name
    for name in ("c", "s", "seq"):
        assert vars(getattr(got, name)) == vars(getattr(want, name)), name


@settings(max_examples=40, deadline=None)
@given(boxes)
@example((8, 40, None))  # classes of three pairs, many under one parent
def test_a_class_evaluated_from_its_parent_is_the_class_evaluated_alone(box):
    bounds = EnumerationBounds(*box)
    for parent, c in _subtrees(bounds, _prefixes(bounds)):
        assert_same_pass(_evaluate(c, SHARED_STAGES, parent), _evaluate(c, {}))


def test_classes_of_four_pairs_carry_their_records():
    records = sweep(EnumerationBounds(16, 100), workers=1)[0]
    assert len(records) == 20851
    assert sum(rec.char_exponents.g == 4 for rec in records) == 1980
    assert_carried_records(records)


def test_the_box_with_four_pairs_renders_its_pinned_csv():
    want = PINNED["16:100"]
    rows, summary = sweep(EnumerationBounds(16, 100), workers=1, render=_csv_line)
    q = summary.max_quotient
    document = ",".join(CSV_COLUMNS) + "\n" + "".join(rows)  # as sweep --format csv writes it
    assert hashlib.sha256(document.encode()).hexdigest() == want["csv_sha256"]
    assert (f"classes: {summary.classes}  max mu/tau_min: {q.numerator}/{q.denominator}  "
            f"failed checks: {summary.failed}") == want["summary"]
