"""Command line behaviour across calls in one process and on failure.

main reuses one argument parser for the life of the process, so a call
must behave as if the parser were new.  A failed sweep leaves --out as
it was.  Error messages quote a bounded prefix of a long input.  A JSON
point comes from a template that must equal json.dumps byte for byte.
A fresh process loads the pool's modules only for a parallel walk.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import branch_invariants.cli as cli
import branch_invariants.combinatorics as comb
import branch_invariants.enumeration as en
import branch_invariants.errors as errors
from branch_invariants.cli import _json_point, build_parser, main
from branch_invariants.enumeration import THREADS_ENV_VAR
from branch_invariants.resolution import PointKind, Run
from oracles import _json_item

# bad argv first, then each subcommand, so a parser changed by an earlier
# call would show in a later one
REUSE_ARGVS = [
    ["invariants"],
    ["invariants", "--pair", "2,3", "--semigroup", "2,3"],
    ["sweep", "--max-mult", "x", "--max-beta", "3"],
    ["invariants", "--pair", "5,7", "--format", "json"],
    ["sweep", "--max-mult", "4", "--max-beta", "12", "--max-pairs", "1", "--format", "csv"],
    ["sweep", "--max-mult", "4", "--max-beta", "12"],
    ["invariants", "--char-exponents", "4:6,7"],
    ["check", "--max-mult", "4", "--max-beta", "10"],
]


def handled(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = ("SystemExit", exc.code)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSharedParser:
    def test_build_parser_returns_a_new_parser(self):
        assert build_parser() is not build_parser()

    def test_main_reuses_one_parser(self, capsys):
        handled(capsys, ["invariants", "--pair", "2,3"])
        assert cli._shared_parser() is cli._shared_parser()

    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        reused = [handled(capsys, argv) for argv in REUSE_ARGVS]
        monkeypatch.setattr(cli, "_shared_parser", build_parser)
        fresh = [handled(capsys, argv) for argv in REUSE_ARGVS]
        for argv, got, want in zip(REUSE_ARGVS, reused, fresh):
            assert got == want, argv
        assert [code for code, _, _ in reused] == [
            ("SystemExit", 2), ("SystemExit", 2), ("SystemExit", 2), 0, 0, 0, 0, 0
        ]


class TestPointTemplate:
    @given(
        st.integers(0, errors.INT64_MAX),
        st.sampled_from(list(PointKind)),
        st.integers(0, errors.INT64_MAX),
    )
    def test_equals_json_dumps(self, m, kind, stage):
        point = {"multiplicity": m, "kind": kind.value, "stage": stage}
        assert _json_point(Run(m, 1, kind, stage)) == _json_item(point)


def _interrupt(c, table):
    raise KeyboardInterrupt


class TestOutOnFailure:
    """A sweep that fails after --out was opened leaves the file as it was."""

    def test_limit_error_keeps_out(self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "keep.csv"
        target.write_text("old\n", encoding="utf-8")
        monkeypatch.setattr(comb, "SIEVE_LIMIT", 40)
        code = main(["sweep", "--max-mult", "4", "--max-beta", "30", "--out", str(target)])
        assert code == 2
        assert target.read_text(encoding="utf-8") == "old\n"

    def test_interrupt_keeps_out(self, capsys, monkeypatch, tmp_path):
        def interrupt(c, table):
            raise KeyboardInterrupt

        target = tmp_path / "keep.csv"
        target.write_text("old\n", encoding="utf-8")
        monkeypatch.setattr(en, "_evaluate", interrupt)
        code = main(["sweep", "--max-mult", "8", "--max-beta", "40", "--out", str(target)])
        assert code == 130
        assert target.read_text(encoding="utf-8") == "old\n"

    @pytest.mark.parametrize("fail, code", [
        (lambda mp: mp.setattr(comb, "SIEVE_LIMIT", 40), 2),
        (lambda mp: mp.setattr(en, "_evaluate", _interrupt), 130),
        (lambda mp: mp.setenv(THREADS_ENV_VAR, "x"), 2),
    ], ids=["limit", "interrupt", "threads"])
    def test_failure_leaves_an_absent_out_absent(self, capsys, monkeypatch, tmp_path, fail, code):
        target = tmp_path / "absent.csv"
        fail(monkeypatch)
        assert main(["sweep", "--max-mult", "4", "--max-beta", "30", "--out", str(target)]) == code
        assert not target.exists()

    def test_a_new_out_deleted_during_the_sweep_keeps_the_sweep_error(
            self, capsys, monkeypatch, tmp_path):
        target = tmp_path / "new.csv"

        def delete_and_interrupt(c, table):
            target.unlink()
            raise KeyboardInterrupt

        monkeypatch.setattr(en, "_evaluate", delete_and_interrupt)
        code = main(["sweep", "--max-mult", "4", "--max-beta", "30", "--out", str(target)])
        assert (code, capsys.readouterr().err) == (130, "interrupted\n")
        assert not target.exists()

    def test_success_replaces_out(self, capsys, tmp_path):
        target = tmp_path / "records.csv"
        target.write_text("old\n" * 100, encoding="utf-8")
        code = main(["sweep", "--max-mult", "2", "--max-beta", "10", "--format", "csv",
                     "--out", str(target)])
        assert code == 0
        text = target.read_text(encoding="utf-8")
        assert text.startswith("n,char_exponents,") and "old" not in text


HUGE = "9" * 5000
# an error line quoting a long input stays under this many characters
ERROR_LINE_MAX = 200


class TestEchoedInput:
    @pytest.mark.parametrize("flags", [
        ["--pair", f"2,{HUGE}"],
        ["--pair", ",".join(["1"] * 2500)],
        ["--char-exponents", f"{HUGE}:3"],
        ["--char-exponents", f"2:{HUGE}"],
        ["--char-exponents", HUGE],
        ["--semigroup", f"2,{HUGE}"],
        ["--pair", "2," + "\U0010ffff" * 41],  # each character quotes as ten
    ])
    def test_long_argument_is_cut(self, capsys, flags):
        code, out, err = handled(capsys, ["invariants", *flags])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert len(err) < ERROR_LINE_MAX
        assert "characters)" in err

    def test_long_thread_count_is_cut(self, capsys, monkeypatch):
        monkeypatch.setenv(THREADS_ENV_VAR, "x" * 5000)
        code, out, err = handled(capsys, ["sweep", "--max-mult", "4", "--max-beta", "12"])
        assert code == 2
        assert err.count("\n") == 1 and len(err) < ERROR_LINE_MAX
        assert "'" + "x" * errors.ECHO_LIMIT + "'... (5000 characters)" in err

    def test_short_argument_is_quoted_whole(self, capsys):
        _, _, err = handled(capsys, ["invariants", "--pair", "5,7,9"])
        assert err == "error: --pair needs exactly two integers, got '5,7,9'\n"


SRC = Path(__file__).resolve().parent.parent / "src"
POOL_MODULES = ("concurrent.futures", "multiprocessing")
# main(argv) in a fresh interpreter, then the pool modules loaded, on stderr's last line
CHILD = """
import sys
from branch_invariants.cli import main
code = 0 if {argv!r} is None else main({argv!r})
print(*[m for m in {modules!r} if m in sys.modules], file=sys.stderr)
sys.exit(code)
"""


def fresh_process(argv, threads=None) -> tuple[str, list[str]]:
    """stdout of main(argv) in a new interpreter (import only for None), and the pool modules it loaded."""
    env = {k: v for k, v in os.environ.items() if k != THREADS_ENV_VAR}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if threads:
        env[THREADS_ENV_VAR] = threads
    done = subprocess.run([sys.executable, "-c", CHILD.format(argv=argv, modules=POOL_MODULES)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout, done.stderr.splitlines()[-1].split()


def sweep_argv(max_mult, max_beta):
    return ["sweep", "--max-mult", str(max_mult), "--max-beta", str(max_beta), "--format", "csv"]


class TestPoolLoadsOnlyWhereItRuns:
    @pytest.mark.parametrize("argv, threads", [
        (None, None),
        (["invariants", "--pair", "5,7", "--format", "json"], None),
        (sweep_argv(8, 40), None),
        (sweep_argv(3, 8), "2"),  # 7 prefixes: one pool task
    ], ids=["import", "invariants", "serial-sweep", "one-task-sweep"])
    def test_no_pool_module_is_loaded(self, argv, threads):
        out, loaded = fresh_process(argv, threads)
        assert loaded == []
        assert argv is None or out

    def test_a_parallel_sweep_loads_the_pool_and_prints_the_serial_csv(self):
        serial, _ = fresh_process(sweep_argv(8, 40))
        parallel, loaded = fresh_process(sweep_argv(8, 40), "2")
        assert loaded == list(POOL_MODULES)
        assert parallel == serial
