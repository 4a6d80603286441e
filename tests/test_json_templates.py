"""JSON output from templates, byte-equal to json.dumps(indent=2) of the dict document.

The dict shapes are oracles' _class_dict and _report_dict; an invariants
document, a sweep record and a sweep document must each equal what
json.dumps lays out for them, including failed records whose error holds
text that needs escaping.  The invariants command's CSV and table output
equal oracles' three-call route byte for byte, from one evaluation pass:
one semigroup and one sequence built per query.  The command line also
keeps the module attributes a caller may wrap: full_report, sweep and
run_identity_suite.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import branch_invariants.cli as cli
import branch_invariants.combinatorics as comb
import branch_invariants.enumeration as en
import branch_invariants.invariants as inv
import branch_invariants.resolution as res
import branch_invariants.selfcheck as sc
from branch_invariants import (
    BranchInvariantError,
    CharacteristicExponents,
    EnumerationBounds,
    InternalInvariantViolation,
    SweepRecord,
    evaluate_class,
    full_report,
    multiplicity_sequence,
    semigroup_from_char_exponents,
)
from branch_invariants.cli import _json_record, main
from oracles import _class_dict, _json_item, _report_dict, invariants_reference
from test_differential import DEEP_BETA, DEEP_MULT, classes, huge_classes
from test_sweep_shards import reference_document


def run_main(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def invariants_document(c: CharacteristicExponents) -> str:
    """The invariants document of c, built as a dict and laid out by json.dumps."""
    doc = {
        "char_exponents": _class_dict(c),
        "semigroup": list(semigroup_from_char_exponents(c).gens),
        "multiplicity_sequence": [
            {"multiplicity": p.multiplicity, "kind": p.kind.value, "stage": p.stage}
            for p in multiplicity_sequence(c).points
        ],
        "report": _report_dict(full_report(c)),
    }
    return json.dumps(doc, indent=2) + "\n"


def record_item(rec: SweepRecord) -> str:
    """A sweep record as the dict the templates lay out, through _json_item."""
    return _json_item({
        "char_exponents": _class_dict(rec.char_exponents),
        "semigroup": list(rec.semigroup.gens) if rec.semigroup else None,
        "report": _report_dict(rec.report) if rec.report else None,
        "checks": rec.checks,
        "error": rec.error,
    })


def exponents_arg(c: CharacteristicExponents) -> str:
    return f"{c.n}:{','.join(map(str, c.beta))}"


def assert_invariants_document(c: CharacteristicExponents) -> None:
    code, out, err = run_main(["invariants", "--char-exponents", exponents_arg(c),
                               "--format", "json"])
    try:
        want = invariants_document(c)
    except BranchInvariantError:  # refused: no document, one error line
        assert code != 0 and out == "" and err.count("\n") == 1
        return
    assert (code, err) == (0, "")
    assert out == want


@settings(max_examples=100, deadline=None)
@given(classes(max_mult=DEEP_MULT, max_beta=DEEP_BETA))
@example(CharacteristicExponents(2, (3,)))
@example(CharacteristicExponents(32, (48, 56, 60, 62, 63)))
def test_invariants_document_equals_json_dumps(c):
    assert_invariants_document(c)


@settings(max_examples=50, deadline=None)
@given(huge_classes())
@example(CharacteristicExponents(2000, (2001,)))  # a conductor just below SIEVE_LIMIT
def test_huge_invariants_document_equals_json_dumps_where_reported(c):
    assert_invariants_document(c)


@settings(max_examples=100, deadline=None)
@given(classes(max_mult=DEEP_MULT, max_beta=DEEP_BETA), st.sampled_from(["csv", "table"]))
@example(CharacteristicExponents(2, (6001,)), "csv")
@example(CharacteristicExponents(2, (6001,)), "table")
@example(CharacteristicExponents(4, (6, 2003)), "csv")
@example(CharacteristicExponents(4, (6, 2003)), "table")
@example(CharacteristicExponents(97, (20000,)), "csv")
@example(CharacteristicExponents(97, (20000,)), "table")
@example(CharacteristicExponents(2, (1000000000000000001,)), "csv")  # a sieve above SIEVE_LIMIT
@example(CharacteristicExponents(3, (9223372036854775807,)), "table")  # a sum above int64
def test_invariants_output_equals_the_three_call_route(c, fmt):
    code, out, err = run_main(["invariants", "--char-exponents", exponents_arg(c),
                               "--format", fmt])
    try:
        want = invariants_reference(c, fmt)
    except BranchInvariantError as exc:  # refused on both routes: the same one line, no output
        if isinstance(exc, InternalInvariantViolation):
            assert (code, err) == (3, f"internal invariant violation: {exc}\n")
        else:
            assert (code, err) == (2, f"error: {exc}\n")
        assert out == ""
        return
    assert (code, err) == (0, "")
    assert out == want


# sha256 of the invariants command's stdout, by exponents and format, pinned
# from the three-call route's output; CI checks the same digests in a process
PINNED = json.loads((Path(__file__).parent / "expected_invariants.json").read_text())


@pytest.mark.parametrize("exps, fmt", [(e, f) for e, digests in PINNED.items() for f in digests])
def test_invariants_output_matches_its_pinned_digest(exps, fmt):
    code, out, err = run_main(["invariants", "--char-exponents", exps, "--format", fmt])
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED[exps][fmt]


# error text: quotes, backslashes, control characters, non-ASCII, lone surrogates
error_texts = st.one_of(
    st.text(st.characters(exclude_categories=())),
    st.sampled_from(['"quoted"', "back\\slash", "é\n\x01\x7f", "\ud800 lone", ""]),
)


@settings(max_examples=200, deadline=None)
@given(
    classes(max_mult=DEEP_MULT, max_beta=DEEP_BETA),
    st.booleans(),
    st.booleans(),
    st.none() | error_texts,
)
def test_sweep_record_equals_json_item(c, with_semigroup, with_report, error):
    whole = evaluate_class(c)
    rec = SweepRecord(
        c,
        whole.semigroup if with_semigroup else None,
        whole.report if with_report else None,
        error,
    )
    assert _json_record(rec) == record_item(rec)


@pytest.mark.parametrize("c", [CharacteristicExponents(5, (7,)),
                               CharacteristicExponents(4, (6, 7))])
@pytest.mark.parametrize("error", [None, 'BrokenIdentity: "a\\b"\n\x01 é \udfff'])
def test_record_checks_keys_follow_the_pair_count(c, error):
    rec = evaluate_class(c) if error is None else SweepRecord(c, None, None, error)
    item = _json_record(rec)
    assert item == record_item(rec)
    assert ('"zariski_one_pair"' in item) == (c.g == 1)
    assert json.loads(item)["error"] == error


@settings(max_examples=15, deadline=None)
@given(
    st.integers(2, 6).flatmap(lambda n: st.tuples(st.just(n), st.integers(n + 1, 24))),
    st.sampled_from([None, 1, 2, 3]),
)
def test_sweep_document_equals_json_dumps(box, max_pairs):
    argv = ["sweep", "--max-mult", str(box[0]), "--max-beta", str(box[1]), "--format", "json"]
    if max_pairs is not None:
        argv += ["--max-pairs", str(max_pairs)]
    code, out, _ = run_main(argv)
    assert code == 0
    assert out == reference_document("json", EnumerationBounds(*box, max_pairs))


def counted_calls(monkeypatch, real) -> list:
    """The arguments of every later call to real, through every module global.

    Each package module that holds real as a global gets the same
    counting wrapper, so no route to it goes uncounted.
    """
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (cli, comb, en, inv, res, sc):
        if getattr(module, real.__name__, None) is real:
            monkeypatch.setattr(module, real.__name__, counted)
    return calls


class TestWrappedAttributes:
    """invariants builds its class once, one generator step per exponent and one stage record per stage key; full_report, sweep and the suite stay cli globals."""

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_invariants_builds_the_semigroup_and_the_sequence_once(self, monkeypatch, fmt):
        steps = counted_calls(monkeypatch, comb._generator_step)
        stages = counted_calls(monkeypatch, res._mark_stage)
        for c in (CharacteristicExponents(5, (7,)), CharacteristicExponents(8, (12, 14, 15))):
            steps.clear()
            stages.clear()
            code, out, _ = run_main(["invariants", "--char-exponents", exponents_arg(c),
                                     "--format", fmt])
            assert code == 0 and out
            # each step's exponent b, the third argument, in order
            assert ([step[2] for step in steps], stages) == (list(c.beta), list(c.stage_keys))

    def test_sweep_and_suite_are_module_attributes(self):
        assert cli.full_report is inv.full_report
        assert cli.sweep is en.sweep
        assert cli.run_identity_suite is sc.run_identity_suite
