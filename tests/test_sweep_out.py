"""sweep --out to a path that is not a regular file, or that is the command's own stdout or stderr.

An --out that names the file behind fd 1 or fd 2 (same device and inode)
is written through that stream as if there were no --out: the rows, then
the summary.  Any other --out is opened once, before any work; one that
exists and is not a regular file, such as a pipe or a FIFO, gets the
rows as they arrive.  Each subprocess case runs a new interpreter under
a timeout.
"""

from __future__ import annotations

import builtins
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from branch_invariants import EnumerationBounds
from branch_invariants.cli import main
from branch_invariants.enumeration import THREADS_ENV_VAR
from test_sweep_shards import reference_document

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


def test_a_regular_out_is_opened_once(capsys, monkeypatch, tmp_path):
    target = tmp_path / "records.csv"
    target.write_text("old\n", encoding="utf-8")
    opened = []

    def counting(real):
        def call(file, *args, **kwargs):
            if file == str(target):
                opened.append(file)
            return real(file, *args, **kwargs)
        return call

    monkeypatch.setattr(builtins, "open", counting(builtins.open))
    monkeypatch.setattr(os, "open", counting(os.open))
    code = main(["sweep", "--max-mult", "4", "--max-beta", "12", "--format", "csv",
                 "--out", str(target)])
    monkeypatch.undo()
    assert (code, opened) == (0, [str(target)])
    assert target.read_text(encoding="utf-8") == reference_document("csv", EnumerationBounds(4, 12))


SUMMARY = b"classes: 19  max mu/tau_min: 7/6  failed checks: 0\n"


@pytest.mark.skipif(not os.path.exists("/dev/stderr"), reason="no /dev/stderr")
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_out_that_is_stderr_redirected_to_a_file(monkeypatch, tmp_path, fmt):
    """--out /dev/stderr 2> f writes what > f 2>&1 writes, stdout block-buffered as by default."""
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    shared, named = tmp_path / "shared.txt", tmp_path / "named.txt"
    # a later --format replaces SWEEP's csv
    with open(shared, "wb") as file:  # > f 2>&1
        shared_code = run(["--format", fmt], stdout=file, stderr=subprocess.STDOUT).returncode
    with open(named, "wb") as file:  # --out /dev/stderr 2> f
        named_code = run(["--format", fmt, "--out", "/dev/stderr"],
                         stdout=subprocess.DEVNULL, stderr=file).returncode
    document = reference_document(fmt, EnumerationBounds(4, 12)).encode()
    assert (named_code, named.read_bytes()) == (shared_code, shared.read_bytes())
    assert (shared_code, shared.read_bytes()) == (0, document + SUMMARY)
