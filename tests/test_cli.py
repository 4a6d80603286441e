"""Command line behavior: formats, exit codes, determinism."""

from __future__ import annotations

import csv
import io
import json
from time import perf_counter

import pytest

from branch_invariants import CharacteristicExponents, multiplicity_sequence
from branch_invariants.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInvariantsCommand:
    def test_table(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--char-exponents", "4:6,7"
        )
        assert code == 0
        assert "(4; 6, 7)" in out
        assert "<4, 6, 13>" in out
        assert "origin" in out and "free" in out and "satellite" in out
        assert "8/7 = 1.142857" in out
        assert out.endswith("\n")

    def test_json_values(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--semigroup", "4,6,13", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["char_exponents"] == {"n": 4, "beta": [6, 7]}
        assert doc["semigroup"] == [4, 6, 13]
        assert doc["report"] == {
            "n": 4,
            "mu": 16,
            "tau_minus": 2,
            "q_min": 0,
            "tau_min": 14,
            "quotient": {"num": 8, "den": 7, "decimal": "1.142857"},
            "tau_lower_bound": 11,
            "delta_gen_gaps": 3,
        }
        kinds = [p["kind"] for p in doc["multiplicity_sequence"]]
        assert kinds == ["origin", "free", "satellite", "free", "satellite"]

    def test_json_round_trip_is_byte_identical(self, capsys):
        _, out, _ = run(
            capsys, "invariants", "--char-exponents", "5:7", "--format", "json"
        )
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_json_deterministic(self, capsys):
        first = run(capsys, "invariants", "--pair", "6,7", "--format", "json")
        second = run(capsys, "invariants", "--pair", "6,7", "--format", "json")
        assert first == second

    def test_csv_row(self, capsys):
        code, out, _ = run(
            capsys, "invariants", "--char-exponents", "4:6,7", "--format", "csv"
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        row = rows[0]
        assert row["n"] == "4"
        assert row["char_exponents"] == "4;6;7"
        assert row["semigroup"] == "4;6;13"
        assert row["quotient"] == "8/7"
        assert row["checks_passed"] == "1"
        assert row["multiplicity_sequence"] == "4o;2f;2s;1f;1s"

    def test_pair_equals_char_exponents(self, capsys):
        via_pair = run(capsys, "invariants", "--pair", "5,7", "--format", "json")
        via_exp = run(
            capsys, "invariants", "--char-exponents", "5:7", "--format", "json"
        )
        assert via_pair == via_exp


class TestSweepCommand:
    def test_csv_columns(self, capsys):
        code, out, err = run(
            capsys, "sweep", "--max-mult", "3", "--max-beta", "10",
            "--format", "csv",
        )
        assert code == 0
        reader = csv.reader(io.StringIO(out))
        header = next(reader)
        assert header == [
            "n", "char_exponents", "semigroup", "mu", "tau_minus", "q_min",
            "tau_min", "quotient", "lower_bound", "delta_gen_gaps",
            "checks_passed",
        ]
        rows = list(reader)
        assert len(rows) == 9
        assert "classes: 9" in err

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "records.csv"
        code, out, err = run(
            capsys, "sweep", "--max-mult", "2", "--max-beta", "10",
            "--format", "csv", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        text = target.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert len(text.splitlines()) == 5  # header + four classes
        assert "failed checks: 0" in err

    def test_json_summary(self, capsys):
        _, out, _ = run(
            capsys, "sweep", "--max-mult", "4", "--max-beta", "12",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["summary"]["failed_checks"] == 0
        assert doc["summary"]["classes"] == len(doc["records"])
        for rec in doc["records"]:
            assert rec["error"] is None
            assert all(rec["checks"].values())

    def test_table_runs(self, capsys):
        code, out, _ = run(capsys, "sweep", "--max-mult", "2", "--max-beta", "7")
        assert code == 0
        assert "(2; 3)" in out and "(2; 7)" in out

    def test_bad_box(self, capsys):
        code, _, err = run(capsys, "sweep", "--max-mult", "4", "--max-beta", "3")
        assert code == 2
        assert "error:" in err


class TestCheckCommand:
    def test_green_box(self, capsys):
        code, out, _ = run(capsys, "check", "--max-mult", "4", "--max-beta", "16")
        assert code == 0
        lines = out.strip().splitlines()
        assert all(line.startswith("ok   ") for line in lines)
        assert any("tau_min_double_computation" in line for line in lines)
        assert any("sigma_pointwise_bound" in line for line in lines)

    def test_broken_sigma_is_caught(self, capsys, monkeypatch):
        import branch_invariants.invariants as inv
        import branch_invariants.selfcheck as sc

        orig = inv.moduli_dim_term

        def broken(k):
            return orig(k) - 1 if k % 2 == 0 else orig(k)

        monkeypatch.setattr(inv, "moduli_dim_term", broken)
        monkeypatch.setattr(sc, "moduli_dim_term", broken)
        code, out, _ = run(capsys, "check", "--max-mult", "4", "--max-beta", "12")
        assert code == 1
        assert "FAIL" in out
        # the closed tau_min route writes sigma apart from moduli_dim_term,
        # so the break first shows where the two routes meet
        assert "first failing identity: tau_min_double_computation" in out


class TestErrorPaths:
    def test_missing_input_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invariants"])
        assert exc.value.code == 2

    def test_conflicting_input_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["invariants", "--pair", "2,3", "--semigroup", "2,3"])
        assert exc.value.code == 2

    def test_invalid_exponents(self, capsys):
        code, _, err = run(capsys, "invariants", "--char-exponents", "4:6,8")
        assert code == 2
        assert "divisible" in err

    def test_not_plane_semigroup(self, capsys):
        code, _, err = run(capsys, "invariants", "--semigroup", "4,6,12")
        assert code == 2
        assert "not a plane-branch semigroup" in err

    def test_malformed_inputs(self, capsys):
        for flags in (
            ["--char-exponents", "nonsense"],
            ["--char-exponents", "4:6,x"],
            ["--pair", "5"],
            ["--pair", "5,7,9"],
            ["--semigroup", "a,b"],
        ):
            code, _, err = run(capsys, "invariants", *flags)
            assert code == 2, flags
            assert "error:" in err

    def test_smooth_pair(self, capsys):
        code, _, err = run(capsys, "invariants", "--pair", "1,2")
        assert code == 2
        assert "smooth" in err


class TestInt64Edges:
    """Classes whose sieve or values leave every limit fail fast with exit 2."""

    @pytest.mark.parametrize(
        "pair", ["2,1000000000000000001", "3037000499,3037000500", "3,9223372036854775807"]
    )
    def test_exit_2_within_a_second(self, capsys, pair):
        started = perf_counter()
        code, out, err = run(capsys, "invariants", "--pair", pair)
        assert perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("pair", ["2,1000000000000000001", "2,9223372036854775807"])
    def test_sieve_limit_is_named(self, capsys, pair):
        _, _, err = run(capsys, "invariants", "--pair", pair)
        assert "SIEVE_LIMIT" in err


# (2; 6001) has 3,002 points in 4 runs, (4; 6, 2003) 1,003 points over two pairs
LONG_CHAINS = ["2:6001", "4:6,2003"]


def points_of(spec: str):
    n, beta = spec.split(":")
    c = CharacteristicExponents(int(n), tuple(int(b) for b in beta.split(",")))
    return multiplicity_sequence(c).points


class TestLongChainRendering:
    """Each format equals a point-by-point rendering, byte for byte."""

    @pytest.mark.parametrize("spec", LONG_CHAINS)
    def test_json(self, capsys, spec):
        _, out, _ = run(capsys, "invariants", "--char-exponents", spec, "--format", "json")
        doc = json.loads(out)
        doc["multiplicity_sequence"] = [
            {"multiplicity": p.multiplicity, "kind": p.kind.value, "stage": p.stage}
            for p in points_of(spec)
        ]
        assert out == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("spec", LONG_CHAINS)
    def test_csv(self, capsys, spec):
        _, out, _ = run(capsys, "invariants", "--char-exponents", spec, "--format", "csv")
        row = next(csv.DictReader(io.StringIO(out)))
        row["multiplicity_sequence"] = ";".join(
            f"{p.multiplicity}{p.kind.value[0]}" for p in points_of(spec)
        )
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(row), lineterminator="\n")
        writer.writeheader()
        writer.writerow(row)
        assert out == buf.getvalue()

    @pytest.mark.parametrize("spec", LONG_CHAINS)
    def test_table(self, capsys, spec):
        _, out, _ = run(capsys, "invariants", "--char-exponents", spec)
        points = points_of(spec)
        assert len(points) > 1000
        lines = out.split("multiplicity sequence:\n")[1].splitlines()
        assert lines[: len(points)] == [
            f"  stage {p.stage}  {p.multiplicity:>3}  {p.kind.value}" for p in points
        ]
        assert lines[len(points)].startswith("mu ")
