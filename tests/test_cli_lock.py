"""Byte-for-byte lock on the CLI's stdout.

cli_lock.json holds the SHA-256 of stdout for every argv below, recorded
before the renderers, the profile serializers and the n = 4 and
first-child special cases were consolidated; any change to what a user
sees fails here. `{c8}` stands for a level-8 coefficient file. A compute
case locks the pair (stdout, written coefficient file), recorded before
the odd-index split moved into cfe.hwm_expansion; `{out}` is that file.
The help and usage-error cases lock stdout and stderr respectively, at
COLUMNS=80 on CPython 3.11, recorded before the parser was built from a
command table; the last three help cases and the last four usage-error
cases were recorded before it held only the commands argv names.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from champcfe import arith
from champcfe.cli import main

LOCK_FILE = Path(__file__).with_name("cli_lock.json")


def lock_cases() -> list[str]:
    cases = []
    for n in range(4, 15):
        for fmt in ("text", "json", "csv"):
            cases.append(f"predict --hwm {n} --format {fmt}")
            if n >= 6:
                cases.append(f"predict --hwm {n} --child --format {fmt}")
    for n in range(4, 8):
        for fmt in ("text", "json"):
            cases.append(f"verify --hwm {n} --error --format {fmt}")
            cases.append(f"verify --hwm {n} --format {fmt}")
        cases.append(f"verify --hwm {n} --no-next --format json")
    for k in (101, 357):
        cases.append(f"child --coefficient-index {k} --coefficients {{c8}}")
        cases.append(f"child --coefficient-index {k} --coefficients {{c8}} --format json")
    for fmt in ("text", "csv", "json"):
        suffix = "" if fmt == "text" else f" --format {fmt}"
        cases.append("classify --coefficients {c8}" + suffix)
    return cases


def compute_cases() -> list[str]:
    return [f"compute --hwm {n} --out {{out}} --emit-numerator" for n in range(4, 9)]


COMMANDS = ("digits", "predict", "compute", "verify", "classify", "child", "bench")


def help_cases() -> list[str]:
    named = [f"{name} --help" for name in COMMANDS]
    # abbreviated and repeated help flags before a command
    return ["--help"] + named + ["--hel predict", "-hh predict", "--h predict --hwm 7"]


def usage_error_cases() -> list[str]:
    return [
        "verify --hwm x",
        "frobnicate",
        "compute --hwm 8",
        "verify --hwm 5 --bogus",
        "predict --hwm 7 --format xml",
        "verify",
        "--max-digits x verify --hwm 4",
        "frobnicate --out predict",
        "predict --hwm 7 verify",
        "--max-digits 5",
        "-hv predict",
    ]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def stdout_sha256(capsys, case: str, c8: Path) -> tuple[int, str]:
    code = main(case.format(c8=c8).split())
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.fixture(scope="module")
def c8(tmp_path_factory):
    path = tmp_path_factory.mktemp("lock") / "c8.txt"
    assert main(["compute", "--hwm", "8", "--out", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def lock():
    return json.loads(LOCK_FILE.read_text())


def test_lock_covers_every_case(lock):
    cases = lock_cases() + compute_cases() + help_cases() + usage_error_cases()
    assert sorted(lock) == sorted(cases)


@pytest.mark.parametrize("case", lock_cases())
def test_stdout_is_unchanged(capsys, c8, lock, case):
    assert stdout_sha256(capsys, case, c8) == (0, lock[case])


@pytest.mark.parametrize("case", help_cases())
def test_help_is_unchanged(capsys, monkeypatch, lock, case):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(case.split())
    captured = capsys.readouterr()
    assert (code, sha256(captured.out), captured.err) == (0, lock[case], "")


@pytest.mark.parametrize("case", usage_error_cases())
def test_usage_error_is_unchanged(capsys, monkeypatch, lock, case):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(case.split())
    captured = capsys.readouterr()
    assert (code, captured.out, sha256(captured.err)) == (1, "", lock[case])


@pytest.mark.parametrize("case", compute_cases())
def test_compute_output_is_unchanged(capsys, tmp_path, lock, case):
    out = tmp_path / "terms.txt"
    code = main(case.format(out=out).split())
    stdout = capsys.readouterr().out
    hashes = [hashlib.sha256(b).hexdigest() for b in (stdout.encode(), out.read_bytes())]
    assert (code, hashes) == (0, lock[case])


def test_compute_and_child_convert_no_long_operand(monkeypatch, capsys, tmp_path, lock):
    """compute writes the level chain's Decimals as their digit strings and
    child computes on Decimals read from them: no radix conversion sees an
    operand above the leaf size, and the output is the locked one."""

    def digits(x) -> int:  # an estimate for ints, at most one too many
        return len(x) if isinstance(x, str) else math.ceil(abs(x).bit_length() * math.log10(2))

    def leaf_only(name):
        convert = getattr(arith, name)

        def guarded(x):
            if digits(x) > arith._LEAF:
                raise AssertionError(f"arith.{name} of a {digits(x)}-digit operand")
            return convert(x)

        return guarded

    for name in ("from_digits", "to_digits", "to_decimal"):
        monkeypatch.setattr(arith, name, leaf_only(name))
    out = tmp_path / "c8.txt"
    compute = "compute --hwm 8 --out {out} --emit-numerator"
    code = main(compute.format(out=out).split())
    stdout = capsys.readouterr().out
    hashes = [hashlib.sha256(b).hexdigest() for b in (stdout.encode(), out.read_bytes())]
    assert (code, hashes) == (0, lock[compute])
    child = "child --coefficient-index 357 --coefficients {c8}"
    assert stdout_sha256(capsys, child, out) == (0, lock[child])
