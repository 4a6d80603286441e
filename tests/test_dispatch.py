"""An argv that starts with a command word is read by that command's parser alone.

argparse's top-level pass over such an argv only finds the word and hands
the rest to the word's parser, so skipping it must change nothing: the
same namespace, or the same exit, stdout and stderr, as the earlier route
(oracles.parse_reference) on every argv.  Any other argv still takes the
top-level pass, which reads the word after a leading "--" as the
command word, whatever it looks like, as CPython 3.13's argparse does.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branch_invariants.cli as cli
import branch_invariants.selfcheck as sc
from branch_invariants.enumeration import THREADS_ENV_VAR
from oracles import parse_reference
from test_input_contract import argvs

# words that argparse reads differently at the top level and in a command:
# help and its abbreviation, the end of options, joined values, abbreviated
# options, command words in any place, and words no parser takes
EDGE_WORDS = [
    "--", "-h", "--he", "--help", "--format=json", "--pair=5,7", "--form", "--char", "--semi",
    "--max-m", "--max-b", "--max", "--out", "invariants", "sweep", "check", "extra", "-x", "-1",
    "", "5,7", "12",
]
edges = st.lists(st.sampled_from(EDGE_WORDS), max_size=3)
edged_argvs = st.one_of(
    st.builds(lambda head, argv, tail: [*head, *argv, *tail], edges, argvs, edges),
    st.lists(st.sampled_from(EDGE_WORDS), max_size=6),
)


def outcome(parse, argv: list[str]):
    """parse(argv)'s namespace, in order, or its SystemExit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = list(vars(parse(argv)).items())
        except SystemExit as exc:
            result = ("SystemExit", exc.code)
    return result, out.getvalue(), err.getvalue()


@settings(max_examples=400, deadline=None)
@given(edged_argvs)
def test_both_routes_read_every_argv_alike(argv):
    got = outcome(cli._shared_parser().parse_args, argv)
    want = outcome(lambda words: parse_reference(cli.build_parser(), words), argv)
    assert got == want, argv


@pytest.mark.parametrize("argv, passes, code", [
    (["invariants", "--pair", "5,7"], 0, 0),
    (["sweep", "--max-mult", "3", "--max-beta", "5"], 0, 0),
    (["check", "--max-mult", "3", "--max-beta", "5"], 0, 0),
    (["--", "check"], 1, 0),  # the top-level pass drops the "--" and runs check
    (["bogus"], 1, 2),
    ([], 1, 2),
])
def test_only_an_argv_without_a_command_word_takes_the_top_level_pass(
        capsys, monkeypatch, argv, passes, code):
    parser = cli._shared_parser()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return type(parser).parse_known_args(parser, *args, **kwargs)

    monkeypatch.setattr(parser, "parse_known_args", counted)
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 20)  # check's sigma scan, cut to a few terms
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    try:
        got = cli.main(argv)
    except SystemExit as exc:
        got = exc.code
    assert (got, len(calls)) == (code, passes)


def test_a_leading_end_of_options_reads_the_next_word_as_the_command():
    parse = cli._shared_parser().parse_args
    assert outcome(parse, ["--", "check", "--max-mult", "3", "--max-beta", "5"]) == (
        [("command", "check"), ("max_mult", 3), ("max_beta", 5), ("func", cli.cmd_check)], "", "")
    got, out, err = outcome(parse, ["--", "bogus"])
    assert (got, out) == (("SystemExit", 2), "")
    assert "invalid choice: 'bogus'" in err


@pytest.mark.parametrize("word", ["-h", "--help", "bogus"])
def test_a_word_after_a_leading_end_of_options_is_refused_unless_it_is_a_command(word):
    got, out, err = outcome(cli._shared_parser().parse_args, ["--", word])
    assert (got, out) == (("SystemExit", 2), "")
    assert len(err.splitlines()) == 1
    assert f"argument command: invalid choice: '{word}'" in err


def test_a_command_word_after_a_leading_end_of_options_runs_that_command(capsys, monkeypatch):
    monkeypatch.setattr(sc, "SIGMA_BOUND_LIMIT", 20)
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert cli.main(["--", "check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(line.startswith("ok ") for line in lines) == 15
    assert not any(line.startswith("FAIL") for line in lines)
