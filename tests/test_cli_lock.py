"""Byte-for-byte lock on the CLI's stdout.

cli_lock.json holds the SHA-256 of stdout for every argv below, recorded
before the renderers, the profile serializers and the n = 4 and
first-child special cases were consolidated; any change to what a user
sees fails here. `{c8}` stands for a level-8 coefficient file.
"""

import hashlib
import json
from pathlib import Path

import pytest

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
    assert sorted(lock) == sorted(lock_cases())


@pytest.mark.parametrize("case", lock_cases())
def test_stdout_is_unchanged(capsys, c8, lock, case):
    assert stdout_sha256(capsys, case, c8) == (0, lock[case])
