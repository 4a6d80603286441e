"""sweep --out to a path that is not a regular file, or that is the command's own stdout.

An --out that is this process's stdout (its fd 1's device and inode) is
written as if there were no --out.  One that exists and is not a regular
file, such as a pipe or a FIFO, is opened once and gets the rows as they
arrive.  Each case runs a new interpreter under a timeout.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from branch_invariants.enumeration import THREADS_ENV_VAR

SRC = Path(__file__).resolve().parent.parent / "src"
SWEEP = [sys.executable, "-m", "branch_invariants.cli", "sweep", "--max-mult", "4",
         "--max-beta", "12", "--format", "csv"]
TIMEOUT = 20  # seconds; the sweep itself takes well under one

needs_dev_stdout = pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="no /dev/stdout")


def run(extra: list[str], **streams) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop(THREADS_ENV_VAR, None)
    return subprocess.run([*SWEEP, *extra], env=env, timeout=TIMEOUT, **streams)


@needs_dev_stdout
def test_out_that_is_a_pipe_on_stdout():
    plain = run([], capture_output=True)
    piped = run(["--out", "/dev/stdout"], capture_output=True)
    assert (piped.returncode, piped.stdout, piped.stderr) == (0, plain.stdout, plain.stderr)
    assert plain.stdout.startswith(b"n,char_exponents,")


@pytest.mark.parametrize("named", [pytest.param("/dev/stdout", marks=needs_dev_stdout), "itself"])
def test_out_that_is_stdout_redirected_to_a_file(tmp_path, named):
    def into_file(name: str, out: bool) -> tuple[int, bytes]:
        path = tmp_path / name
        extra = ["--out", str(path) if named == "itself" else named] if out else []
        with open(path, "wb") as stdout:  # stderr shares the file and its offset
            code = run(extra, stdout=stdout, stderr=subprocess.STDOUT).returncode
        return code, path.read_bytes()

    plain = into_file("plain.txt", out=False)
    assert into_file("out.txt", out=True) == plain
    assert plain[0] == 0 and plain[1].startswith(b"n,char_exponents,")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs")
def test_out_that_is_a_fifo_with_a_reader(tmp_path):
    fifo = tmp_path / "rows"
    os.mkfifo(fifo)
    got = []

    def read() -> None:
        with open(fifo, "rb") as rows:
            got.append(rows.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    done = run(["--out", str(fifo)], capture_output=True)
    reader.join(TIMEOUT)
    plain = run([], capture_output=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, b"", plain.stderr)
    assert got == [plain.stdout]
