import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from champcfe import cfe, cli, predict, verify
from champcfe.cli import build_parser, main


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


    @pytest.mark.parametrize("newline", [b"\r\n", b"\r"])
    def test_cr_newlines_are_rejected(self, capsys, tmp_path, coefficients8, newline):
        # the grammar is LF only: a CRLF or bare-CR copy of a good file is malformed
        bad = tmp_path / "cr.txt"
        bad.write_bytes(coefficients8.read_bytes().replace(b"\n", newline))
        for argv in (
            ("classify", "--coefficients", str(bad)),
            ("child", "--coefficient-index", "101", "--coefficients", str(bad)),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (1, "")
            assert err.startswith("error: line 1:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "text, want",
        [
            ("", "empty coefficient file"),
            ("\n", "line 1: not a decimal coefficient: ''"),
            ("12\n5", ["12", "5"]),
            ("12\r\n5\r\n", "line 1: not a decimal coefficient: '12\\r'"),
            ("12\r5\n", "line 1: not a decimal coefficient: '12\\r'"),
            ("12\n\n5\n", "line 2: not a decimal coefficient: ''"),
            ("12\n5\n\n", "line 3: not a decimal coefficient: ''"),
            ("12\n01\n", "line 2: not a decimal coefficient: '01'"),
            ("12\n0\n", ["12", "0"]),
            ("12\n+1\n", "line 2: not a decimal coefficient: '+1'"),
            ("12\n \n", "line 2: not a decimal coefficient: ' '"),
            ("12\n١\n", "line 2: not a decimal coefficient: '١'"),
        ],
        ids=[
            "empty", "lone-lf", "no-final-lf", "crlf", "bare-cr", "blank-middle",
            "lf-lf-end", "leading-zero", "zero", "plus", "space", "arabic-indic-one",
        ],
    )
    def test_file_grammar_is_pinned(self, capsys, tmp_path, text, want):
        # the lines, or the one error line, that the reader and both commands give
        path = tmp_path / "c.txt"
        path.write_bytes(text.encode())
        with open(path, newline="") as fp:  # as classify and child open it
            if isinstance(want, list):
                assert cfe._coefficient_lines(fp) == want
            else:
                with pytest.raises(ValueError) as exc:
                    cfe._coefficient_lines(fp)
                assert str(exc.value) == want
        # a well-formed file of two short terms holds no child to verify
        valid = isinstance(want, list)
        err = "" if valid else f"error: {want}\n"
        code, _, got = run(capsys, "classify", "--coefficients", str(path))
        assert (code, got) == (0 if valid else 1, err)
        code, _, got = run(capsys, "child", "--coefficient-index", "1", "--coefficients", str(path))
        if valid:
            err = "error: no first-generation maximum precedes the index\n"
        assert (code, got) == (1, err)


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

    @pytest.mark.parametrize("index", [50, 100])
    def test_zero_past_the_first_term_is_an_error(self, capsys, tmp_path, coefficients8, index):
        # index 100 is the last term of child 101's convergent, which the
        # reversed pass meets first
        terms = coefficients8.read_text().split("\n")
        terms[index] = "0"
        bad = tmp_path / "zero.txt"
        bad.write_text("\n".join(terms))
        code, out, err = run(
            capsys, "child", "--coefficient-index", "101", "--coefficients", str(bad)
        )
        assert (code, out) == (1, "")
        assert err == "error: coefficients after the first must be >= 1\n"

    @pytest.mark.parametrize(
        "index, hwm, exp", [(161, 6, 5590), (162, 6, 5590), (526, 7, 74890)]
    )
    def test_a_convergent_closer_than_a_child_is_no_child(
        self, capsys, coefficients8, index, hwm, exp
    ):
        # its error lies below what the child's own truth digits can measure,
        # so no digit budget helps: one error line names the index instead
        want = (
            f"error: coefficient index {index} is not a child: its convergent agrees"
            f" with the constant to within 1E-{exp}, past position {exp - 1}, where a"
            f" child after HWM #{hwm} fails\n"
        )
        argv = ["child", "--coefficient-index", str(index), "--coefficients", str(coefficients8)]
        for budget in ([], ["--max-digits", "100000000"]):
            assert run(capsys, *budget, *argv) == (1, "", want)

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

    def test_json_matches_the_table(self, capsys):
        code, out, _ = run(capsys, "bench", "--max-hwm", "5", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["backend"] == "int"
        assert payload["python"].split()[-1] == platform.python_version()
        rows = payload["levels"]
        assert [(r["hwm"], r["c10_digits_used"], r["total_coefficient_digits"]) for r in rows] == [
            (4, 2, 4),
            (5, 11, 24),
        ]
        assert all(r["status"] == "confirmed" and r["seconds"] > 0 for r in rows)
        fields = {"hwm", "c10_digits_used", "total_coefficient_digits", "seconds", "status"}
        assert set(rows[0]) == fields

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

    @pytest.mark.parametrize(
        "argv",
        [
            "verify --hwm x",
            "frobnicate",
            "compute --hwm 8",
            "verify --hwm 5 --bogus",
            "predict --hwm 7 --format xml",
        ],
    )
    def test_usage_error_is_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv.split())
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error:")

    def test_help_exits_zero(self, capsys):
        assert run(capsys, "--help")[0] == 0

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "classify", "--coefficients", "/nonexistent/f")
        assert code == 1
        assert "error:" in err


def subparser_dests(parser) -> dict:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: [a.dest for a in p._actions] for name, p in sub.choices.items()}


def parse_outcome(parse, argv: list[str]) -> tuple:
    """What parse(argv) gives: the namespace, the usage error, or the exit
    code and stdout of help."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            return "ok", vars(parse(argv))
    except cli._UsageError as exc:
        return "usage", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


OPTION_VALUES = ["0", "4", "7", "101", "-1", "x", "text", "json", "csv"]
HELP_SPELLINGS = ["-h", "-hh", "-hv", "--h", "--he", "--hel", "--help"]
ARGV_TOKENS = sorted(
    {name for name, _, _ in cli.COMMANDS}
    | {flag for _, _, options in cli.COMMANDS for flag, _ in options}
    | set(HELP_SPELLINGS)
    | {"--help=1", "--max-digits", "frobnicate", "--bogus", "-", "--"}
    | set(OPTION_VALUES)
)


@st.composite
def command_lines(draw) -> list[str]:
    """Mostly well-formed lines: maybe --max-digits, then a command and most
    of its options, each with a value it accepts where it takes one, and up
    to two tokens of ARGV_TOKENS put in anywhere."""
    name, _, options = draw(st.sampled_from(cli.COMMANDS))
    words = [name]
    for flag, kwargs in options:
        if draw(st.integers(0, 3)):
            words.append(flag)
            if kwargs.get("action") != "store_true":
                ints = ["4", "7", "101"] if kwargs.get("type") is int else ["c8.txt", "verify"]
                words.append(draw(st.sampled_from(kwargs.get("choices", ints))))
    if draw(st.booleans()):
        words[:0] = ["--max-digits", draw(st.sampled_from(["0", "101"]))]
    for _ in range(draw(st.integers(0, 2))):
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(ARGV_TOKENS)))
    return words


class TestParser:
    def test_only_the_named_subcommand_gets_options(self):
        dests = subparser_dests(build_parser(["predict", "--hwm", "7"]))
        assert dests == {"predict": ["help", "hwm", "child", "format", "out"]}
        assert list(subparser_dests(build_parser(["--hwm", "predict"]))) == ["predict"]
        every = [name for name, _, _ in cli.COMMANDS]
        for argv in ([], ["--help"], ["frobnicate"], *([h, "predict"] for h in HELP_SPELLINGS)):
            assert list(subparser_dests(build_parser(argv))) == every

    @pytest.mark.parametrize(
        "argv, built",
        [
            (["predict", "--hwm", "7", "--format", "json"], 2),
            (["--help"], 8),
            (["frobnicate", "--out", "predict"], 10),  # one, then all seven again
        ],
        ids=["predict", "help", "usage-error"],
    )
    def test_parsers_built_per_call(self, monkeypatch, capsys, argv, built):
        """Counts constructions, not time: the parent and one subparser per
        command the parser holds (add_subparsers makes them of the parent's
        class)."""
        made = []

        class Counting(cli._Parser):
            def __init__(self, *args, **kwargs):
                made.append(kwargs.get("prog"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(cli, "_Parser", Counting)
        main(argv)
        capsys.readouterr()
        assert len(made) == built

    @settings(max_examples=400, deadline=None)
    @given(st.lists(st.sampled_from(ARGV_TOKENS), max_size=7) | command_lines())
    def test_the_per_call_parse_agrees_with_the_full_parser(self, argv):
        def full(argv):
            return build_parser(argv, cli.COMMANDS).parse_args(argv)

        assert parse_outcome(cli._parse_args, argv) == parse_outcome(full, argv)

    def test_a_command_name_as_an_option_value_runs_the_command(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "digits", "--position", "5", "--out", "verify") == (0, "", "")
        assert (tmp_path / "verify").read_text() == "012345\n"
