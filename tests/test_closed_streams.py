"""A command started with its stdout or stderr closed, or open for reading only.

A command that must write to a stdout it cannot write exits 2 with one
stderr line, as it does when its reader closes a pipe early; a sweep
with --out needs no stdout and keeps exit 0.  The one stderr line is
written if stderr can take it, never to stdout instead, and the exit
code stands; a sweep summary that cannot be written is output that
cannot be written, exit 2.  Each case runs a new interpreter from sh,
which closes or reopens the fd first.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from branch_invariants.cli import build_parser
from branch_invariants.enumeration import THREADS_ENV_VAR

SRC = Path(__file__).resolve().parent.parent / "src"
SHELL = shutil.which("sh")
TIMEOUT = 60  # seconds; each command takes well under one

pytestmark = pytest.mark.skipif(SHELL is None or sys.platform == "win32", reason="no POSIX sh")

# an fd closed, or open on os.devnull for reading only, so that a write to it fails
NO_STDOUT = [">&-", "1</dev/null"]
NO_STDERR = ["2>&-", "2</dev/null"]

SWEEP = ["sweep", "--max-mult", "4", "--max-beta", "12", "--format", "csv"]
SUMMARY = b"classes: 19  max mu/tau_min: 7/6  failed checks: 0\n"


def run(argv: list[str], redirect: str = "") -> subprocess.CompletedProcess:
    """The command line, in a new interpreter whose fds sh has redirected first.

    stdout is block-buffered, as it is by default, so that a write to it
    may first fail when it is flushed.
    """
    env = {k: v for k, v in os.environ.items() if k not in (THREADS_ENV_VAR, "PYTHONUNBUFFERED")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([SHELL, "-c", f'exec "$@" {redirect}', "sh",
                           sys.executable, "-m", "branch_invariants.cli", *argv],
                          env=env, capture_output=True, timeout=TIMEOUT)


def outcome(done: subprocess.CompletedProcess) -> tuple[int, bytes, bytes]:
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("redirect", NO_STDERR)
@pytest.mark.parametrize("argv", [
    ["invariants", "--pair", "4,6"],
    ["sweep", "--max-mult", "4", "--max-bet"],
], ids=["invalid-class", "argparse"])
def test_an_error_without_a_stderr_keeps_its_exit_code_and_leaves_stdout_alone(redirect, argv):
    assert outcome(run(argv, redirect)) == (2, b"", b"")


@pytest.mark.parametrize("redirect", NO_STDERR)
def test_a_sweep_without_a_stderr_writes_its_rows_and_exits_2(redirect):
    rows = run(SWEEP).stdout
    assert rows.startswith(b"n,char_exponents,") and rows.count(b"\n") == 20
    assert outcome(run(SWEEP, redirect)) == (2, rows, b"")


@pytest.mark.parametrize("redirect", NO_STDERR)
def test_a_command_that_writes_no_stderr_line_needs_no_stderr(redirect):
    argv = ["invariants", "--pair", "5,7"]
    assert outcome(run(argv, redirect)) == (0, run(argv).stdout, b"")


@pytest.mark.parametrize("redirect", NO_STDOUT)
@pytest.mark.parametrize("argv", [
    ["invariants", "--pair", "5,7"],
    SWEEP,
    ["check", "--max-mult", "4", "--max-beta", "10"],
    # help is output too: argparse's own would fall back to stderr, or drop it, and exit 0
    ["-h"],
    ["invariants", "-h"],
    ["sweep", "--help"],
    ["check", "-h"],
], ids=["invariants", "sweep", "check", "help", "invariants-help", "sweep-help", "check-help"])
def test_a_command_without_a_stdout_exits_2_with_one_line(redirect, argv):
    code, out, err = outcome(run(argv, redirect))
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: [Errno 9] Bad file descriptor") and err.count(b"\n") == 1


@pytest.mark.parametrize("argv", [[], ["invariants"], ["sweep"], ["check"]])
def test_help_to_a_writable_stdout_is_argparses_own(argv):
    parser = build_parser()
    if argv:  # the command word's own parser, as the subparsers action holds it
        parser = next(a.choices for a in parser._actions if a.dest == "command")[argv[0]]
    assert outcome(run([*argv, "-h"])) == (0, parser.format_help().encode(), b"")


@pytest.mark.parametrize("redirect", NO_STDOUT)
def test_a_sweep_with_out_needs_no_stdout(tmp_path, redirect):
    target = tmp_path / "records.csv"
    target.write_text("old\n", encoding="utf-8")
    assert outcome(run([*SWEEP, "--out", str(target)], redirect)) == (0, b"", SUMMARY)
    assert target.read_bytes() == run(SWEEP).stdout
