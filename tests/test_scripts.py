import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_tables_confirms_every_row():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py")],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    statuses = [line.split()[-1] for line in proc.stdout.splitlines() if line.strip()]
    assert statuses.count("confirmed") == 7  # levels 4-8, children 101 and 357
    assert "violation" not in proc.stdout
