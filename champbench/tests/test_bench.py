"""Self-tests of the benchmark: span arithmetic, oracle failure counting,
seeded op lists, and the metric names BENCHMARK.json declares.

    python3 -m pytest champbench/tests
"""

import json
from pathlib import Path

import pytest

import run
import tracing
import workloads

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    t = tracing.Tracer(clock=fake_clock([0, 1, 2, 3, 4, 5, 9, 10]))
    root = t.open("cli.main")
    a = t.open("verify.verify_hwm")
    b = t.open("arith.to_digits")
    t.close(b)
    t.close(a)
    c = t.open("arith.to_digits")
    t.close(c)
    t.close(root)
    assert [s[tracing.PARENT] for s in t.spans] == [-1, 0, 1, 0]
    assert tracing.self_times(t.spans) == [3, 2, 1, 4]

    m = tracing.layer_metrics(t.spans)
    assert m["arith.to_digits.calls"][0] == 2
    assert m["arith.to_digits.self_s"][0] == 5
    assert m["arith.self_s"][0] == 5
    assert m["verify.self_s"][0] == 2
    assert m["cli.main.incl_s"][0] == 10
    assert m["verify.verify_hwm.incl_s"][0] == 3


def test_self_time_clips_and_merges_overlapping_children():
    spans = [
        ["cfe.cfe_extract", 0.0, 10.0, -1, 0, 0, 0],
        ["arith.gcd", 2.0, 6.0, 0, 0, 0, 0],
        ["arith.gcd", 4.0, 8.0, 0, 0, 0, 0],
        ["arith.gcd", 9.0, 12.0, 0, 0, 0, 0],
    ]
    assert tracing.self_times(spans)[0] == 10 - 6 - 1


def test_recursive_calls_count_once_in_inclusive_time():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, 0, 0],
        ["cli.main", 2.0, 6.0, 0, 0, 0, 0],
    ]
    m = tracing.layer_metrics(spans)
    assert m["cli.main.incl_s"][0] == 10
    assert m["cli.main.self_s"][0] == 10
    assert m["cli.main.calls"][0] == 2


def test_install_patches_every_binding_site_and_undo_restores():
    prog = run.Program()
    original = prog.digits.digits_up_to
    assert prog.cli.digits_up_to is original and prog.verify.digits_up_to is original
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, prog.layers(), [prog.package, *prog.layers()])
    try:
        for site in (prog.package, prog.cli, prog.verify, prog.digits):
            assert site.digits_up_to is not original
            assert site.digits_up_to.__wrapped__ is original
        prog.cli.digits_up_to(5)
        assert [s[tracing.NAME] for s in tracer.spans] == ["digits.digits_up_to"]
        assert tracer.spans[0][tracing.DIGITS] == 6
    finally:
        undo()
    for site in (prog.package, prog.cli, prog.verify, prog.digits):
        assert site.digits_up_to is original


def test_one_wrong_digit_is_counted_as_a_failure(monkeypatch, tmp_path):
    prog = run.Program()
    ops = [
        workloads.Op("cli", ("digits", "--position", "30")),
        workloads.Op("cli", ("digits", "--position", "40")),
    ]
    oracle = workloads.Oracle(ops)
    clean = run.run_passes(prog, ops, oracle, seconds=1e-9)
    assert (len(clean.latency_s), clean.failed) == (2, 0)

    real = prog.cli.digits_up_to

    def one_wrong_digit(p, max_digits):
        d = real(p, max_digits=max_digits).digits
        if p != 40:
            return prog.digits.DigitPrefix(d)
        wrong = "0" if d[17] != "0" else "1"
        return prog.digits.DigitPrefix(d[:17] + wrong + d[18:])

    monkeypatch.setattr(prog.cli, "digits_up_to", one_wrong_digit)
    res = run.run_passes(prog, ops, oracle, seconds=1e-9)
    assert (len(res.latency_s), res.failed) == (2, 1)
    assert res.problems == ["digits --position 40: wrong digits"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_op_list(workload, tmp_path):
    ops = workloads.make_ops(workload, 7, tmp_path)
    assert ops == workloads.make_ops(workload, 7, tmp_path)
    assert ops != workloads.make_ops(workload, 8, tmp_path)


def test_small_requests_mix():
    ops = workloads.make_ops("small-requests", 3, Path("."))
    kinds = [op.args[0] for op in ops]
    assert (kinds.count("digits"), kinds.count("predict"), kinds.count("verify")) == (40, 32, 28)
    assert all(int(op.args[2]) <= workloads.MAX_POSITION for op in ops if op.args[0] == "digits")


def test_constant_digits_oracle():
    assert workloads.constant_digits(15) == "0123456789101112"


def test_benchmark_json_declares_the_printed_metrics():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    res = run.Passes()
    res.pass_s, res.latency_s = [1.0], [0.5, 0.5]
    e2e = run.end_to_end([0.1], res)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    layer = tracing.layer_metrics([])
    layer.update(tracing.overhead_metrics(1.0, 1.0, 0))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in layer.items()}


def test_a_crashing_op_is_counted_as_a_failure(monkeypatch):
    prog = run.Program()
    ops = [workloads.Op("cli", ("predict", "--hwm", "5", "--format", "json"))]
    oracle = workloads.Oracle(ops)

    def crash(argv):
        raise RuntimeError("boom")

    monkeypatch.setattr(prog.cli, "main", crash)
    res = run.run_passes(prog, ops, oracle, seconds=1e-9)
    assert (len(res.latency_s), res.failed) == (1, 1)
    assert "RuntimeError: boom" in res.problems[0]
