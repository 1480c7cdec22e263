"""What the benchmark in champbench/ uses of the program, held in the
default test run: the names it reads, and one oracle-checked pass of each
workload, which compares the as_dict() output of levels 4-8, of children
101 and 357 and the level-8 coefficient file against the SHA-256 locks in
champbench/oracle.json, untraced and traced.
"""

import argparse
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "champbench"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def prog():
    return run.Program()


def test_stamp_reads_the_backend(prog):
    args = argparse.Namespace(workload="verify-ladder", seed=1, seconds=1.0, trace=0)
    assert run.stamp(prog, args)["backend"] == "int"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_pass_matches_the_oracle(prog, workload, tmp_path, monkeypatch):
    monkeypatch.delenv("CHAMPCFE_MAX_DIGITS", raising=False)  # as run.main does
    ops = workloads.make_ops(workload, 1, tmp_path)
    res = run.run_passes(prog, ops, workloads.Oracle(ops), seconds=1e-9)
    assert (len(res.latency_s), res.failed) == (len(ops), 0), res.problems[:5]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_traced_pass_matches_the_oracle(prog, workload, tmp_path, monkeypatch):
    # the tracer wraps every public function and sizes its operands as
    # ints, so a public function fed Decimals fails the traced run
    monkeypatch.delenv("CHAMPCFE_MAX_DIGITS", raising=False)
    ops = workloads.make_ops(workload, 1, tmp_path)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, prog.layers(), [prog.package, *prog.layers()])
    try:
        res = run.run_passes(prog, ops, workloads.Oracle(ops), seconds=1e-9, tracer=tracer)
    finally:
        undo()
    assert (len(res.latency_s), res.failed) == (len(ops), 0), res.problems[:5]


def test_a_traced_main_spans_its_handler(prog, capsys):
    # build_parser looks cmd_* up when it runs, so the tracer's wrapper is
    # the handler that runs, under main's span
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, prog.layers(), [prog.package, *prog.layers()])
    try:
        assert prog.cli.main(["predict", "--hwm", "5", "--format", "json"]) == 0
    finally:
        undo()
    capsys.readouterr()
    names = [s[tracing.NAME] for s in tracer.spans]
    handler = tracer.spans[names.index("cli.cmd_predict")]
    assert tracer.spans[handler[tracing.PARENT]][tracing.NAME] == "cli.main"
