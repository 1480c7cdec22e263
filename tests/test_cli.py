import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from champcfe import predict, verify
from champcfe.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDigits:
    def test_stdout(self, capsys):
        code, out, _ = run(capsys, "digits", "--position", "10")
        assert code == 0
        assert out == "01234567891\n"

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "d.txt"
        code, out, _ = run(capsys, "digits", "--position", "15", "--out", str(path))
        assert code == 0
        assert out == ""
        assert path.read_text() == "0123456789101112\n"

    def test_budget_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("CHAMPCFE_MAX_DIGITS", "100")
        code, _, err = run(capsys, "digits", "--position", "200")
        assert code == 1
        assert err.startswith("error:")

    def test_budget_flag_override(self, capsys):
        code, _, err = run(capsys, "--max-digits", "50", "digits", "--position", "200")
        assert code == 1
        assert "budget" in err

    def test_zero_budget_flag_is_honoured(self, capsys):
        code, out, err = run(capsys, "--max-digits", "0", "digits", "--position", "20")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_negative_budget_flag_is_rejected(self, capsys):
        # predict needs no digits, so only the intake itself can refuse it
        code, out, err = run(capsys, "--max-digits", "-5", "predict", "--hwm", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: the digit budget") and err.count("\n") == 1

    @pytest.mark.parametrize("value", ["abc", "-5", "", "1e6", " 7", "1_000"])
    def test_malformed_budget_env_is_an_error_line(self, capsys, monkeypatch, value):
        monkeypatch.setenv("CHAMPCFE_MAX_DIGITS", value)
        code, out, err = run(capsys, "predict", "--hwm", "5")
        assert code == 1
        assert out == ""
        assert err.startswith("error: CHAMPCFE_MAX_DIGITS") and err.count("\n") == 1


class TestPredict:
    def test_json_level12(self, capsys):
        code, out, _ = run(capsys, "predict", "--hwm", "12", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["hwm_length"] == 7_311_111_092
        assert record["ncd"] == 8_888_888_880
        assert record["denominator_sci"] == "4.999999990000000005E+788888898"
        assert record["error_mantissa"] == "9.00000001"
        assert record["error_exponent"] == -8_888_888_890
        assert record["failing_integer"] == 999_999_998
        assert record["fails_as"] == 999_999_999

    def test_child_record(self, capsys):
        code, out, _ = run(capsys, "predict", "--hwm", "6", "--child", "--format", "json")
        assert code == 0
        record = json.loads(out)
        assert record["child_length"] == 140
        assert record["error_mantissa"] == "-8.92"
        assert record["error_exponent"] == -5590
        assert record["child_shape"]["total_length"] == 2725

    def test_csv_and_text(self, capsys):
        code, out, _ = run(capsys, "predict", "--hwm", "5", "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert header.startswith("hwm,ncd,error_mantissa,error_exponent,denominator_sci")
        assert row.startswith("5,187,9.1,-190,4.9005E+11")
        code, out, _ = run(capsys, "predict", "--hwm", "5")
        assert code == 0
        assert "hwm_length" in out and "166" in out

    def test_bounds(self, capsys):
        assert run(capsys, "predict", "--hwm", "3")[0] == 1
        assert run(capsys, "predict", "--hwm", "5", "--child")[0] == 1

    def test_levels_past_the_int_str_cap(self):
        # ncd and failing_integer of level 5000 run to thousands of digits;
        # the console entry lifts the conversion cap for its own process
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "champcfe", "predict", "--hwm", "5000", "--format", "json"],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["ncd"] == predict.ncd(5000)
        assert record["failing_integer"] == predict.failing_integer(5000)[0]

    def test_level_50000_answers_within_a_minute(self):
        # each digit position is one closed-form expression, not a sum over
        # every narrower block of integers
        env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "champcfe", "predict", "--hwm", "50000", "--format", "json"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout)
        assert record["ncd"] == predict.ncd(50000)
        assert record["failing_integer"] == predict.failing_integer(50000)[0]

    def test_deterministic(self, capsys):
        first = run(capsys, "predict", "--hwm", "9", "--format", "json")
        second = run(capsys, "predict", "--hwm", "9", "--format", "json")
        assert first == second


class TestCompute:
    def test_level5_coefficient_file(self, capsys, tmp_path):
        path = tmp_path / "c5.txt"
        code, out, _ = run(
            capsys, "compute", "--hwm", "5", "--out", str(path), "--emit-numerator"
        )
        assert code == 0
        assert out == "60499999499\n"
        lines = path.read_text().splitlines()
        assert len(lines) == 18
        assert lines[0] == "0"
        assert lines[-1] == "15"
        assert path.read_bytes().count(b"\n") == 18

    def test_deep_gate(self, capsys, tmp_path):
        code, _, err = run(capsys, "compute", "--hwm", "10", "--out", str(tmp_path / "x"))
        assert code == 1
        assert "--deep" in err

    def test_ceiling(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "compute", "--hwm", "12", "--deep", "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert "beyond" in err


class TestVerify:
    def test_level5_json(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--hwm", "5", "--error", "--format", "json"
        )
        assert code == 0
        profile = json.loads(out)
        assert profile["profile_version"] == 1
        assert profile["status"] == "confirmed"
        assert profile["observed_ncd"] == 187
        assert profile["error_observed"] == "9.10E-190"
        assert all(c["ok"] for c in profile["checks"])

    def test_text_output(self, capsys):
        code, out, _ = run(capsys, "verify", "--hwm", "4")
        assert code == 0
        assert "status: confirmed" in out
        assert "[ok ]" in out

    def test_deep_gate(self, capsys):
        code, _, err = run(capsys, "verify", "--hwm", "10")
        assert code == 1
        assert "--deep" in err

    def test_level9_needs_no_deep_flag(self, capsys, monkeypatch):
        # level 9 verifies in seconds; the stub keeps this test cheap
        profile = verify.verify_hwm(4, compute_error=False, check_next_hwm=False)
        levels = []
        monkeypatch.setattr(verify, "verify_hwm", lambda n, **kw: levels.append(n) or profile)
        code, out, err = run(capsys, "verify", "--hwm", "9")
        assert (code, err, levels) == (0, "", [9])
        assert "status: confirmed" in out

    def test_ceiling(self, capsys):
        code, _, err = run(capsys, "verify", "--hwm", "11", "--deep")
        assert code == 1
        assert "beyond" in err

    def test_deterministic(self, capsys):
        first = run(capsys, "verify", "--hwm", "5", "--error", "--format", "json")
        second = run(capsys, "verify", "--hwm", "5", "--error", "--format", "json")
        assert first == second


@pytest.fixture(scope="module")
def coefficients8(tmp_path_factory):
    path = tmp_path_factory.mktemp("coeffs") / "c8.txt"
    code = main(["compute", "--hwm", "8", "--out", str(path)])
    assert code == 0
    return path


class TestClassify:
    def test_csv(self, capsys, coefficients8):
        code, out, _ = run(
            capsys, "classify", "--coefficients", str(coefficients8), "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,length,generation"
        assert "101,140,2" in lines
        assert "357,2468,2" in lines
        assert "246,109,3" in lines

    def test_json_and_text(self, capsys, coefficients8):
        code, out, _ = run(
            capsys, "classify", "--coefficients", str(coefficients8), "--format", "json"
        )
        assert code == 0
        entries = {e["index"]: e for e in json.loads(out)}
        assert entries[101]["generation"] == 2
        code, out, _ = run(capsys, "classify", "--coefficients", str(coefficients8))
        assert code == 0
        assert "gen 2" in out

    def test_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("12\nnope\n")
        code, _, err = run(capsys, "classify", "--coefficients", str(bad))
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("line", ["\u0663", "0008", "+7", " 7"])
    def test_non_ascii_and_padded_lines_are_rejected(self, capsys, tmp_path, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(f"12\n{line}\n", encoding="utf-8")
        for argv in (
            ("classify", "--coefficients", str(bad)),
            ("child", "--coefficient-index", "1", "--coefficients", str(bad)),
        ):
            code, _, err = run(capsys, *argv)
            assert code == 1
            assert err.startswith("error: line 2:") and err.count("\n") == 1


class TestChild:
    def test_child_101(self, capsys, coefficients8):
        code, out, _ = run(
            capsys,
            "child",
            "--coefficient-index",
            "101",
            "--coefficients",
            str(coefficients8),
            "--format",
            "json",
        )
        assert code == 0
        profile = json.loads(out)
        assert profile["status"] == "confirmed"
        assert profile["denominator_shape"]["preamble"] == "3384585496849525154"

    def test_zero_past_the_first_term_is_an_error(self, capsys, tmp_path, coefficients8):
        terms = coefficients8.read_text().split("\n")
        terms[50] = "0"
        bad = tmp_path / "zero.txt"
        bad.write_text("\n".join(terms))
        code, out, err = run(
            capsys, "child", "--coefficient-index", "101", "--coefficients", str(bad)
        )
        assert (code, out) == (1, "")
        assert err == "error: coefficients after the first must be >= 1\n"

    def test_violation_exit_code(self, capsys, coefficients8):
        code, out, _ = run(
            capsys,
            "child",
            "--coefficient-index",
            "100",
            "--coefficients",
            str(coefficients8),
            "--format",
            "json",
        )
        assert code == 2
        assert json.loads(out)["status"] == "violation"


class TestBench:
    def test_basic_table(self, capsys):
        code, out, _ = run(capsys, "bench", "--max-hwm", "5")
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 4  # note, header, two levels
        assert lines[2].split()[0] == "4"
        assert lines[3].split()[0] == "5"
        assert lines[2].split()[1] == "2"
        assert lines[3].split()[1] == "11"

    def test_cfe_digits_come_from_the_verifier(self, capsys):
        code, out, _ = run(capsys, "bench", "--max-hwm", "5")
        assert code == 0
        rows = out.strip().split("\n")[2:]
        for n, row in zip((4, 5), rows):
            profile = verify.verify_hwm(n, check_next_hwm=False)
            assert int(row.split()[2]) == profile.total_coefficient_digits
            assert row.split()[-1] == "confirmed"

    def test_violation_exit_code(self, capsys, monkeypatch):
        profile = verify.verify_hwm(4, compute_error=False, check_next_hwm=False)
        wrong = verify.FieldCheck("ncd", 9, 8, False)
        violated = dataclasses.replace(profile, checks=[*profile.checks, wrong])
        monkeypatch.setattr(verify, "verify_hwm", lambda n, **kw: violated)
        code, out, _ = run(capsys, "bench", "--max-hwm", "5")
        assert code == 2
        assert out.strip().split("\n")[-1].split()[-1] == "violation"

    def test_ceiling(self, capsys):
        code, _, err = run(capsys, "bench", "--max-hwm", "11", "--deep")
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("level", ["3", "0", "-2"])
    def test_floor(self, capsys, level):
        code, out, err = run(capsys, "bench", "--max-hwm", level)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1


class TestErrors:
    def test_unknown_flag(self, capsys):
        assert run(capsys, "verify", "--hwm", "5", "--bogus")[0] == 1

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 1

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "--coefficients", "/nonexistent/f")
        assert code == 1
        assert "error:" in err
