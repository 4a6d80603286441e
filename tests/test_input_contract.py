"""The input contract of the command line: every argv ends in bounded time.

Each call gives a result (exit 0) or one stderr line (exit 2, or argparse's
SystemExit(2)) that quotes at most a bounded prefix of a long input.  Box
fields must fit in signed 64 bits, as class values must.  Integers are
read by Python's int(), so 1_000 is the integer 1000.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import branch_invariants.selfcheck as sc
from branch_invariants import EnumerationBounds
from branch_invariants.cli import main
from branch_invariants.enumeration import THREADS_ENV_VAR
from branch_invariants.errors import (
    ECHO_LIMIT,
    INT64_MAX,
    INT64_MIN,
    OverflowLimitError,
    echo,
)

SRC = Path(__file__).resolve().parent.parent / "src"
# an error line quoting a long input stays under this many characters
ERROR_LINE_MAX = 200
NINES = "9" * 4000  # parses as an int: CPython refuses only above 4,300 digits
HUGE = "9" * 5000
ABOVE = str(INT64_MAX + 1)
CALL_LIMIT = 5  # seconds


@contextlib.contextmanager
def time_limit(seconds: float):
    """Raise TimeoutError in the block once it has run for seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call(argv: list[str]) -> tuple[object, str, str]:
    """main(argv)'s exit code (or SystemExit code), stdout and stderr.

    A call that runs past CALL_LIMIT seconds fails with TimeoutError
    instead of running on.
    """
    out, err = io.StringIO(), io.StringIO()
    with time_limit(CALL_LIMIT), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
    return code, out.getvalue(), err.getvalue()


def assert_one_short_line(err: str) -> None:
    assert err.count("\n") == 1 and err.endswith("\n"), err[:300]
    assert len(err) < ERROR_LINE_MAX, err[:300]
    assert "Traceback" not in err


class TestLongValues:
    """A long integer that parses is cut in the message, as unparsable text is."""

    def test_long_pair_value_is_cut(self):
        code, out, err = call(["invariants", "--pair", f"2,{NINES}"])
        assert code == 2 and out == ""
        assert_one_short_line(err)
        assert "'" + "9" * 40 + "'... (4000 characters) exceeds the signed 64-bit range" in err

    def test_long_thread_count_is_cut(self, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, f"-{NINES}")
        code, out, err = call(["sweep", "--max-mult", "4", "--max-beta", "12"])
        assert code == 2 and out == ""
        assert_one_short_line(err)
        assert "(4001 characters)" in err

    def test_long_generator_list_is_cut(self):
        code, _, err = call(["invariants", "--semigroup", ",".join(["1"] * 2500)])
        assert code == 2
        assert_one_short_line(err)

    def test_short_value_is_printed_whole(self):
        assert call(["invariants", "--pair", "3,9223372036854775807"]) == (
            2, "", "error: value 18446744073709551614 exceeds the signed 64-bit range\n"
        )


class TestBoxBounds:
    @pytest.mark.parametrize("box", [
        (3, 2**63), (2**63, 2**63 + 1), (3, 10, 2**63), (INT64_MIN - 1, 10),
    ])
    def test_box_outside_int64_is_refused(self, box):
        with pytest.raises(OverflowLimitError):
            EnumerationBounds(*box)

    def test_int64_edges_are_accepted(self):
        EnumerationBounds(3, INT64_MAX, INT64_MAX)

    @pytest.mark.parametrize("command", ["sweep", "check"])
    def test_box_outside_int64_exits_2(self, command):
        code, out, err = call([command, "--max-mult", "3", "--max-beta", ABOVE])
        assert code == 2 and out == ""
        assert err == f"error: value {ABOVE} exceeds the signed 64-bit range\n"

    def test_sweep_process_exits_2_in_bounded_time(self):
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        done = subprocess.run(
            [sys.executable, "-m", "branch_invariants.cli", "sweep",
             "--max-mult", "3", "--max-beta", ABOVE],
            capture_output=True, text=True, env=env, timeout=10,
        )
        assert done.returncode == 2 and done.stdout == ""
        assert_one_short_line(done.stderr)


class TestOneLineArgparseErrors:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--max-mult", HUGE, "--max-beta", "3"],
        ["sweep", "--max-mult", "3", "--max-beta", "9", "--format", "x" * 5000],
        ["sweep", "--max-mult", "3", "--max-beta", "9", "x" * 5000],
        ["sweep", "--max-mult", "3", "--max-beta", "9", *["a"] * 2500],
        ["sweep", "--max=" + "x" * 5000],
        ["x" * 5000],
        ["invariants", "--format", "x " * 2500, "--pair", "2,3"],
        ["sweep", "--max-mult", "3", "--max-beta", "5", "--format", "\\" * 50],
    ])
    def test_long_argv_text_is_cut(self, argv):
        code, out, err = call(argv)
        assert code == ("SystemExit", 2) and out == ""
        assert_one_short_line(err)
        assert err.startswith("branch-invariants") and ": error: " in err
        assert "characters)" in err

    @pytest.mark.parametrize("argv", [
        ["sweep", "--max-mult", "3", "--max-beta", "9", "a\nb"],
        ["sweep", "--max=a\nb"],
        ["sweep", "--max=x 'a\nb'"],
    ])
    def test_newline_in_argv_text_is_escaped(self, argv):
        code, out, err = call(argv)
        assert code == ("SystemExit", 2) and out == ""
        assert_one_short_line(err)
        assert "a\\nb" in err

    # each head is the longest prefix whose repr fits in ECHO_LIMIT + 2 characters
    @pytest.mark.parametrize("value, cut", [("a\\b" * 30, 30), ("x'y\"" * 20, 32)])
    def test_escaped_value_is_cut_by_its_text(self, value, cut):
        code, out, err = call(["sweep", "--max-mult", "3", "--max-beta", "5", "--format", value])
        assert code == ("SystemExit", 2) and out == ""
        assert_one_short_line(err)
        assert len(repr(value[:cut])) == ECHO_LIMIT + 2
        head = f"invalid choice: {value[:cut]!r}... ({len(value)} characters) (choose from "
        assert head in err

    def test_escaped_int_value_is_cut_by_its_text(self):
        value = "\\" * 50
        assert call(["sweep", "--max-mult", value, "--max-beta", "3"]) == (
            ("SystemExit", 2), "",
            "branch-invariants sweep: error: argument --max-mult: invalid int value: "
            f"{value[:20]!r}... (50 characters)\n",
        )

    def test_unprintable_value_is_cut_by_its_text(self):
        value = "\U0010ffff" * 41
        code, out, err = call(["sweep", "--max-mult", "3", "--max-beta", "5", "--format", value])
        assert code == ("SystemExit", 2) and out == ""
        assert_one_short_line(err)
        assert f"invalid choice: {value[:4]!r}... (41 characters) (choose from " in err

    def test_quoted_text_that_does_not_parse_keeps_its_cut(self):
        quoted = "\\N{no such name}" + "x" * 40  # argv text in quotes, not a repr
        code, out, err = call(["sweep", f"--max=x '{quoted}'"])
        assert code == ("SystemExit", 2) and out == ""
        assert_one_short_line(err)
        assert f"ambiguous option: --max=x {echo(quoted)} could match" in err

    @pytest.mark.parametrize("argv, message", [
        (["sweep", "--max-mult", "x", "--max-beta", "3"],
         "branch-invariants sweep: error: argument --max-mult: invalid int value: 'x'"),
        (["invariants"],
         "branch-invariants invariants: error: one of the arguments "
         "--char-exponents --semigroup --pair is required"),
        (["invariants", "--pair", "2,3", "--format", "xml"],
         "branch-invariants invariants: error: argument --format: invalid choice: "
         "'xml' (choose from 'table', 'json', 'csv')"),
        (["check", "extra"], "branch-invariants: error: unrecognized arguments: extra"),
    ])
    def test_short_error_is_argparse_line_alone(self, argv, message):
        assert call(argv) == (("SystemExit", 2), "", message + "\n")


def test_underscored_digits_are_integers():
    assert call(["invariants", "--pair", "2,1_001"]) == call(["invariants", "--pair", "2,1001"])
    assert call(["sweep", "--max-mult", "1_0", "--max-beta", "2_0"]) == call(
        ["sweep", "--max-mult", "10", "--max-beta", "20"]
    )


# class values: int64 edges and one beyond, small ints, signs, underscores,
# empty text, and digit strings that parse (4,000) and that do not (5,000)
EDGES = [INT64_MIN - 1, INT64_MIN, INT64_MAX, INT64_MAX + 1]
values = st.one_of(
    st.sampled_from([str(v) for v in EDGES]),
    st.integers(-3, 40).map(str),
    st.sampled_from(["+7", "-0", "1_0", "2_1", "1_000", "_1", "1_", "1__0", "", " 5", "x",
                     "4\n", "a\nb", NINES, "-" + NINES, HUGE, "\\" * 50, "\U0010ffff" * 41]),
)
value_lists = st.builds(
    lambda items, trailing: ",".join(items) + ("," if trailing else ""),
    st.lists(values, max_size=4), st.booleans(),
)
class_flags = st.one_of(
    st.sampled_from([["--pair", "5,7"], ["--char-exponents", "4:6,7"], ["--semigroup", "4,6,13"],
                     ["--char-exponents", "1_2:1_8,2_0,2_1"], ["--pair", "2,4001"]]),
    st.builds(lambda n, rest: ["--char-exponents", f"{n}:{rest}"], values, value_lists),
    st.builds(lambda gens: ["--semigroup", gens], value_lists),
    st.builds(lambda pair: ["--pair", pair], value_lists),
)
formats = st.one_of(st.just([]), st.one_of(st.sampled_from(["table", "json", "csv"]), values).map(
    lambda fmt: ["--format", fmt]))
# boxes are tiny or outside int64: an in-range huge box is not bounded
outside = st.sampled_from([str(INT64_MAX + 1), str(INT64_MIN - 1), NINES, HUGE])
box_fields = st.one_of(
    st.tuples(st.integers(2, 6).map(str), st.integers(3, 30).map(str)),
    st.tuples(st.integers(-1, 6).map(str), st.integers(-1, 30).map(str)),
    st.tuples(st.integers(-1, 6).map(str), outside),
    st.tuples(outside, st.integers(-1, 30).map(str)),
)
box_flags = st.builds(lambda box: ["--max-mult", box[0], "--max-beta", box[1]], box_fields)
pair_limits = st.one_of(st.just([]), st.one_of(st.integers(0, 3).map(str), outside).map(
    lambda g: ["--max-pairs", g]))
argvs = st.one_of(
    st.builds(lambda flags, fmt: ["invariants", *flags, *fmt], class_flags, formats),
    st.builds(lambda box, g, fmt, extra: ["sweep", *box, *g, *fmt, *extra],
              box_flags, pair_limits, formats, st.lists(values, max_size=2)),
    st.builds(lambda box: ["check", *box], box_flags),
)


@settings(max_examples=150, deadline=None)
@given(argvs)
def test_every_argv_ends_in_exit_0_or_one_short_line(argv):
    # check's sigma scan costs about a second whatever the box; this
    # contract is about inputs, so the scan is cut to a few terms here
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sc, "SIGMA_BOUND_LIMIT", 20)
        mp.delenv(THREADS_ENV_VAR, raising=False)
        started = perf_counter()
        code, out, err = call(argv)
        elapsed = perf_counter() - started
    assert elapsed < 1.0, argv
    assert code in (0, 2, ("SystemExit", 2)), (argv, code, err[:300])
    assert "Traceback" not in err
    if code == 0:
        assert out.endswith("\n")
    else:
        assert out == ""
        assert_one_short_line(err)
