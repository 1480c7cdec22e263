import csv
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def reproduce_tables():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "reproduce_tables.py")],
        env=env, capture_output=True, text=True,
    )


def test_reproduce_tables_confirms_every_row(reproduce_tables):
    proc = reproduce_tables
    assert proc.returncode == 0, proc.stderr
    statuses = [line.split()[-1] for line in proc.stdout.splitlines() if line.strip()]
    assert statuses.count("confirmed") == 7  # levels 4-8, children 101 and 357
    assert "violation" not in proc.stdout


def test_reproduce_tables_generation_rows_match_the_published_table(reproduce_tables):
    # the level-8 expansion ends before HWM #8 at index 526: the seeds and
    # every published row below it
    section = reproduce_tables.stdout.split("Generation classification")[1]
    lines = section.split("\n\n")[0].splitlines()[1:]
    rows = [(int(i), int(length), int(g)) for i, length, _, g in map(str.split, lines)]
    with open(ROOT / "tests" / "data" / "generation_table.csv") as fp:
        published = [tuple(map(int, r.values())) for r in csv.DictReader(fp)]
    assert rows == [(0, 1, 1), (4, 6, 1)] + [r for r in published if r[0] < 526]


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_pairs_compare_applies_the_claim_rule(bench_pairs):
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]
    faster = [p - 1 for p in parent]
    row = bench_pairs.compare(parent, faster, lower_is_better=True, bound=0.25)
    assert (row["wins"], row["verdict"], row["claim"]) == (10, "ok", True)
    # nine wins of ten, but a gap inside the parent's spread
    close = [p - 0.01 for p in parent[:9]] + [parent[9] + 0.01]
    row = bench_pairs.compare(parent, close, lower_is_better=True, bound=0.25)
    assert (row["wins"], row["claim"]) == (9, False)
    row = bench_pairs.compare(parent, [p * 1.3 for p in parent], lower_is_better=True, bound=0.25)
    assert (row["wins"], row["verdict"]) == (0, "worse")
    # a spread wider than the bound leaves a metric unresolved, unless every
    # run of the change reads better than every run of the parent
    assert bench_pairs.compare(parent, close, True, bound=0.01)["verdict"] == "unresolved"
    assert bench_pairs.compare(parent, faster, True, bound=0.01)["verdict"] == "ok"


def test_bench_pairs_judges_by_the_parents_gate(bench_pairs, tmp_path):
    # the parent's bounds apply; a change that edits its own file is refused
    # with one error line before any run
    parent, change = tmp_path / "parent", tmp_path / "change"
    gate = json.loads((ROOT / "BENCHMARK.json").read_text())
    for d in (parent, change):
        d.mkdir()
        (d / "BENCHMARK.json").write_text(json.dumps(gate))
    assert bench_pairs.load_gate(parent, change) == gate["end_to_end"]
    for m in gate["end_to_end"]:
        m["bound"] *= 2
    (change / "BENCHMARK.json").write_text(json.dumps(gate))
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main([str(parent), str(change), "--workload", "small-requests"])
    message = str(exc.value.code)
    assert message.startswith("error:") and "\n" not in message


def test_bench_pairs_compares_the_failed_share(bench_pairs):
    # more failed ops than the parent, in share of the attempted, is worse
    runs = [{"failed": 0, "attempted": 100}, {"failed": 1, "attempted": 900}]
    same = [{"failed": 1, "attempted": 1000}, {"failed": 0, "attempted": 1}]
    more = [{"failed": 2, "attempted": 1000}, {"failed": 0, "attempted": 1}]
    assert bench_pairs.compare_failures(runs, same)["verdict"] == "ok"
    row = bench_pairs.compare_failures(runs, more)
    assert (row["parent"], row["verdict"]) == (0.001, "worse")
    assert bench_pairs.compare_failures(more, runs)["verdict"] == "ok"


def test_bench_pairs_runs_every_workload_of_the_gate(bench_pairs, tmp_path, monkeypatch, capsys):
    # with no --workload, each workload of the parent's file gets its pairs
    # and then its own table
    parent, change = tmp_path / "parent", tmp_path / "change"
    gate = json.loads((ROOT / "BENCHMARK.json").read_text())
    for d in (parent, change):
        d.mkdir()
        (d / "BENCHMARK.json").write_text(json.dumps(gate))
    calls = []

    def run_once(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        wall = 1.0 if checkout == parent else 0.5
        values = {"setup_s": 0.1, "wall_s": wall, "ops_per_s": 1 / wall, "peak_rss_mb": 20.0}
        metrics = {name: {"value": v} for name, v in values.items()}
        return {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_once", run_once)
    assert bench_pairs.main([str(parent), str(change), "--pairs", "2", "--seconds", "1"]) == 0
    names = [w["name"] for w in gate["workloads"]]
    assert calls == [
        (side, name, seed)
        for name in names
        for seed, order in ((1, ("parent", "change")), (2, ("change", "parent")))
        for side in order
    ]
    out = capsys.readouterr().out
    tables = [line.split(":")[0] for line in out.splitlines() if " pairs of 1 s;" in line]
    assert tables == names
    assert out.count("wall_s       1 -> 0.5 (-50.0%), IQR 0, [2/2]") == len(names)
    # a repeated --workload picks the workloads and their order
    calls.clear()
    picked = ["--workload", names[2], "--workload", names[0]]
    assert bench_pairs.main([str(parent), str(change), "--pairs", "1", *picked]) == 0
    assert [w for _, w, _ in calls] == [names[2]] * 2 + [names[0]] * 2
