"""Output written as it is produced.

A sweep writes each run's rows as the run arrives, and invariants writes
its multiplicity sequence in bounded pieces, so the process holds one
run's rows or one piece at a time, never the whole document.  A sweep
that fails part way has written a prefix of its successful output, cut
after a whole row; runs without rows add nothing; a reader that closes
stdout early gets exit 2 and one stderr line; --out is rewritten in place
and only once the sweep succeeded.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import branch_invariants.combinatorics as comb
import branch_invariants.enumeration as en
from branch_invariants import EnumerationBounds
from branch_invariants.cli import main
from branch_invariants.enumeration import THREADS_ENV_VAR, _prefixes, _subtrees
from test_sweep_shards import forks, reference_document

SRC = Path(__file__).resolve().parent.parent / "src"

# where each format's successful output may be cut: after a CSV or table
# line, or after a JSON record's closing brace (records sit 4 spaces in)
ROW_END = {"csv": "\n", "table": "\n", "json": "\n    }"}


def row_cuts(fmt: str, full: str) -> list[str]:
    """Every prefix of full that ends after its head and one or more whole rows."""
    end = ROW_END[fmt]
    cuts, at = [], full.find(end)
    if fmt != "json":  # the header line ends first
        at = full.find(end, at + 1)
    while at != -1:
        cuts.append(full[:at + len(end)])
        at = full.find(end, at + 1)
    return cuts


def sieve_limit_40(monkeypatch):
    """(3; 20), past the first run of (4, 30), needs a sieve above 40 cells."""
    monkeypatch.setattr(comb, "SIEVE_LIMIT", 40)


def interrupt_at_class_30(monkeypatch):
    """Ctrl-C at the 30th class a process evaluates, past the first run of (8, 40)."""
    real, seen = en._evaluate, []

    def counted(c, table, node=None):
        seen.append(c)
        if len(seen) == 30:
            raise KeyboardInterrupt
        return real(c, table, node)

    monkeypatch.setattr(en, "_evaluate", counted)


@pytest.mark.parametrize("threads", [None, pytest.param("2", marks=forks)])
@pytest.mark.parametrize("fmt", ["csv", "table", "json"])
@pytest.mark.parametrize("fail, box, want_code, want_err", [
    (sieve_limit_40, (4, 30), 2, "error: "),
    (interrupt_at_class_30, (8, 40), 130, "interrupted\n"),
], ids=["limit", "interrupt"])
def test_a_failed_sweep_writes_a_prefix_of_whole_rows(
        capsys, monkeypatch, fail, box, want_code, want_err, fmt, threads):
    full = reference_document(fmt, EnumerationBounds(*box))
    fail(monkeypatch)
    if threads:
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
    code = main(["sweep", "--max-mult", str(box[0]), "--max-beta", str(box[1]), "--format", fmt])
    captured = capsys.readouterr()
    assert code == want_code
    assert captured.err.count("\n") == 1 and captured.err.startswith(want_err)
    assert captured.out in row_cuts(fmt, full)


@pytest.mark.parametrize("threads", [None, "2"])
@pytest.mark.parametrize("fmt", ["csv", "table", "json"])
def test_runs_without_rows_add_no_separators(capsys, monkeypatch, fmt, threads):
    bounds = EnumerationBounds(4, 12, 1)
    runs = [list(_subtrees(bounds, [p])) for p in _prefixes(bounds)]
    assert [] in runs and runs[0]  # (4, 6) holds no one-pair class, (2, 3) does
    monkeypatch.setattr(en, "TASK_PREFIXES", 1)
    if threads:
        monkeypatch.setenv(THREADS_ENV_VAR, threads)
    code = main(["sweep", "--max-mult", "4", "--max-beta", "12", "--max-pairs", "1",
                 "--format", fmt])
    out = capsys.readouterr().out
    monkeypatch.delenv(THREADS_ENV_VAR, raising=False)
    assert code == 0
    assert out == reference_document(fmt, bounds)


# the interpreter as $0 and argv after it; the pipeline exits as the writer did
PIPE_TO_HEAD = '"$0" -m branch_invariants.cli "$@" | head -1; exit "${PIPESTATUS[0]}"'


@pytest.mark.skipif(shutil.which("bash") is None, reason="no bash to build the pipe")
@pytest.mark.parametrize("argv", [
    ["sweep", "--max-mult", "12", "--max-beta", "100", "--format", "csv"],
    ["invariants", "--pair", "2,400001", "--format", "json"],
], ids=["sweep", "invariants"])
def test_a_closed_stdout_pipe_exits_2_with_one_line(argv):
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(["bash", "-c", PIPE_TO_HEAD, sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout.count("\n") == 1
    assert done.stderr == "error: [Errno 32] Broken pipe\n"


@pytest.fixture
def records(tmp_path):
    target = tmp_path / "records.csv"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    return target


def sweep_to(out: Path) -> int:
    return main(["sweep", "--max-mult", "4", "--max-beta", "12", "--format", "csv",
                 "--out", str(out)])


def test_out_is_rewritten_in_place(capsys, records):
    before = records.stat()
    assert sweep_to(records) == 0
    after = records.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert records.read_text(encoding="utf-8") == reference_document(
        "csv", EnumerationBounds(4, 12))
    assert sorted(records.parent.iterdir()) == [records]  # the rows' own file is gone


def test_a_symlinked_out_stays_a_symlink(capsys, records):
    link = records.parent / "link.csv"
    link.symlink_to(records.name)
    assert sweep_to(link) == 0
    assert link.is_symlink() and os.readlink(link) == records.name
    assert records.read_text(encoding="utf-8").startswith("n,char_exponents,")


def test_a_dangling_symlinked_out_stays_a_symlink(capsys, monkeypatch, tmp_path):
    link = tmp_path / "out.csv"
    link.symlink_to("missing.csv")
    monkeypatch.setenv(THREADS_ENV_VAR, "x")  # fails after --out is opened
    assert sweep_to(link) == 2
    assert link.is_symlink() and os.readlink(link) == "missing.csv"
    assert sorted(tmp_path.iterdir()) == [link]  # and no target is left behind it
    monkeypatch.delenv(THREADS_ENV_VAR)
    assert sweep_to(link) == 0
    assert link.is_symlink() and os.readlink(link) == "missing.csv"
    assert (tmp_path / "missing.csv").read_text(encoding="utf-8") == reference_document(
        "csv", EnumerationBounds(4, 12))


def test_a_failed_sweep_leaves_no_file_beside_out(capsys, monkeypatch, records):
    monkeypatch.setattr(comb, "SIEVE_LIMIT", 40)
    assert main(["sweep", "--max-mult", "4", "--max-beta", "30", "--out", str(records)]) == 2
    assert records.read_text(encoding="utf-8") == "old\n"
    assert sorted(records.parent.iterdir()) == [records]


def test_an_empty_out_fails_to_open_like_any_other_path(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)  # "" resolves to the working directory, which stays
    assert main(["sweep", "--max-mult", "3", "--max-beta", "5", "--format", "csv",
                 "--out", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
    assert tmp_path.is_dir() and list(tmp_path.iterdir()) == []


class HashingSink:
    """A stdout that keeps only the size and sha256 of what is written to it."""

    def __init__(self) -> None:
        self.size, self.digest = 0, hashlib.sha256()

    def write(self, text: str) -> int:
        data = text.encode()
        self.size += len(data)
        self.digest.update(data)
        return len(text)

    def flush(self) -> None:
        pass


def test_a_tall_class_is_written_in_bounded_memory():
    sink = HashingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(["invariants", "--pair", "2,4194303", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    # 2,097,151 points of about 77 bytes each: the whole document would be 161 MB
    assert (sink.size, sink.digest.hexdigest()) == (
        161481189, "097d6c937584b841f564f0e8e689b0e586a0afc7b15d0e352c668b75488b405f")
    assert peak < 8 << 20
