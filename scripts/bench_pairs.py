#!/usr/bin/env python3
"""Run the benchmark in two checkouts, alternating, and compare them.

    python3 scripts/bench_pairs.py PARENT CHANGE [--workload small-requests ...] \\
        [--pairs 10] [--seconds 40]

--workload may be given more than once; without it every workload of the
parent's BENCHMARK.json runs, one after another. Each pair runs
`champbench/run.py --trace 0` once in each checkout, with the pair number
as the seed: the parent first in odd pairs, the change first in even ones.
Every run's last JSON line is printed as it comes, and each workload's
table follows its last pair. The gate is the parent's BENCHMARK.json, and
a change whose file differs is refused. Each side's failed-op share
(failed over attempted ops, over all its runs) is printed, worse where the
change's is higher. Then, per end-to-end metric, the table gives the
parent's median and interquartile range, the change's median, how many
pairs the change won (ties count for neither side), the change against
its bound, and whether a gain could be claimed: the change won at least
nine pairs in ten and its median is better than the parent's by more than
the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "champbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {checkout}: {' '.join(cmd)} exited "
                         f"{proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_gate(parent: Path, change: Path) -> list[dict]:
    """The end-to-end metrics of the parent's BENCHMARK.json: a change is
    judged by its parent's bounds, never by bounds of its own."""
    text = (parent / "BENCHMARK.json").read_bytes()
    if (change / "BENCHMARK.json").read_bytes() != text:
        raise SystemExit(f"error: {change / 'BENCHMARK.json'} differs from "
                         f"{parent / 'BENCHMARK.json'}; a change is judged by its parent's gate")
    return json.loads(text)["end_to_end"]


def compare_failures(parent: list[dict], change: list[dict]) -> dict:
    """Each side's failed ops over its attempted ops, summed over its runs;
    the change is worse where its share is higher."""
    share = {}
    for side, results in (("parent", parent), ("change", change)):
        attempted = sum(r["attempted"] for r in results)
        share[side] = sum(r["failed"] for r in results) / attempted if attempted else 0.0
    return {**share, "verdict": "worse" if share["change"] > share["parent"] else "ok"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def compare(parent: list[float], change: list[float], lower_is_better: bool,
            bound: float) -> dict:
    """One metric over paired runs: parent[i] and change[i] are pair i."""
    sign = -1 if lower_is_better else 1
    q1, med, q3 = quartiles(parent)
    iqr = q3 - q1
    change_med = statistics.median(change)
    gain = sign * (change_med - med)  # > 0: the change reads better
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if -gain > bound * abs(med):
        verdict = "worse"
    elif iqr > bound * abs(med) and not (
            min(sign * c for c in change) > max(sign * p for p in parent)):
        verdict = "unresolved"
    else:
        verdict = "ok"
    return {"parent_median": med, "parent_iqr": iqr, "change_median": change_med,
            "rel": (change_med - med) / med if med else 0.0, "wins": wins,
            "pairs": len(parent), "verdict": verdict,
            "claim": 10 * wins >= 9 * len(parent) and gain > iqr}


def run_pairs(parent: Path, change: Path, workload: str, pairs: int,
              seconds: float) -> dict[str, list[dict]]:
    runs = {"parent": [], "change": []}
    checkouts = {"parent": parent, "change": change}
    for pair in range(1, pairs + 1):
        order = ("parent", "change") if pair % 2 else ("change", "parent")
        for side in order:
            result = run_once(checkouts[side], workload, pair, seconds)
            runs[side].append(result)
            print(f"{workload} pair {pair} {side}: {json.dumps(result)}", flush=True)
    return runs


def print_table(workload: str, runs: dict[str, list[dict]], spec: list[dict],
                seconds: float) -> None:
    pairs = len(runs["parent"])
    print(f"\n{workload}: {pairs} pairs of {seconds:g} s; median parent -> "
          f"change, parent IQR, change better in wins/pairs")
    failures = compare_failures(runs["parent"], runs["change"])
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"  {side}: {failed}/{attempted} ops failed ({100 * failures[side]:.3g}%), "
              f"median {statistics.median(r['attempted'] for r in results):g} attempted per run")
    print(f"  failed share: {failures['verdict']}")
    for m in spec:
        name = m["name"]
        row = compare([r["metrics"][name]["value"] for r in runs["parent"]],
                      [r["metrics"][name]["value"] for r in runs["change"]],
                      m["better"] == "lower", m["bound"])
        print(f"  {name:<12} {row['parent_median']:.4g} -> {row['change_median']:.4g} "
              f"({100 * row['rel']:+.1f}%), IQR {row['parent_iqr']:.3g}, "
              f"[{row['wins']}/{row['pairs']}], bound {100 * m['bound']:g}%: "
              f"{row['verdict']}, claim {'holds' if row['claim'] else 'not met'}", flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append",
                        help="repeatable; default: every workload of the parent's BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    spec = load_gate(args.parent, args.change)
    workloads = args.workload or [
        w["name"] for w in json.loads((args.parent / "BENCHMARK.json").read_text())["workloads"]]
    for workload in workloads:
        runs = run_pairs(args.parent, args.change, workload, args.pairs, args.seconds)
        print_table(workload, runs, spec, args.seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
