#!/usr/bin/env python3
"""champcfe benchmark.

    python3 champbench/run.py --workload verify-ladder --seed 1 --seconds 40 --trace 0

Runs one workload from the root of a checkout: imports champcfe from
`src/`, makes the op list from the seed, and runs whole passes over it in
a closed loop (one client, no threads) for about `--seconds` seconds,
always at least one pass. Every output is checked against the oracle in
`oracle.json`. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it runs half the time untraced and half with every public
champcfe function wrapped, and reports the per-layer metrics instead.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Lines before it are a readable report. The full result, stamped with the
arithmetic backend, Python version, core count, commit and seed, is also
written to `champbench/out/`, and a traced run writes its spans there.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5  # set-ups per run; setup_s is their median
PROBE_TIMEOUT_S = 60


class Program:
    """The champcfe modules, imported from this checkout's sources."""

    def __init__(self):
        src = ROOT / "src"
        if not (src / "champcfe" / "__init__.py").is_file():
            raise SystemExit(f"error: no champcfe sources under {src}")
        sys.path.insert(0, str(src))
        self.package = importlib.import_module("champcfe")
        if Path(self.package.__file__).resolve().parent != src / "champcfe":
            raise SystemExit(f"error: champcfe imported from {self.package.__file__}, not {src}")
        for name in tracing.LAYERS:
            setattr(self, name, importlib.import_module(f"champcfe.{name}"))

    def layers(self):
        return [getattr(self, name) for name in tracing.LAYERS]


def set_up(workload: str, seed: int, workdir: Path):
    """Import, inputs and oracle: the work timed as setup_s."""
    start = time.perf_counter()
    prog = Program()
    ops = workloads.make_ops(workload, seed, workdir)
    oracle = workloads.Oracle(ops)
    return prog, ops, oracle, time.perf_counter() - start


def probe_setup(args) -> float:
    """One set-up in a fresh interpreter, so the import is timed cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up failed:\n{proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


@dataclass
class Passes:
    """Pass times, op latencies and failures of one loop."""

    pass_s: list[float] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)


def run_passes(prog, ops, oracle, seconds: float, tracer=None) -> Passes:
    """Whole passes over `ops` until another would end after `seconds`.
    Only the champcfe calls are timed; oracle checks run between them."""
    res = Passes()
    start = time.perf_counter()
    while True:
        pass_s = 0.0
        for op in ops:
            span = None
            if tracer is not None:
                tracer.op_id += 1
                span = tracer.open(tracing.OP_SPAN)
            t0 = time.perf_counter()
            try:
                outcome = workloads.run_op(prog, op)
            except Exception:  # a crash is a failed op; the loop goes on
                outcome = None
                problems = [f"{op}: {traceback.format_exc()}"]
            dt = time.perf_counter() - t0
            if span is not None:
                tracer.close(span)
            if outcome is not None:
                problems = oracle.check(op, outcome)
            res.latency_s.append(dt)
            pass_s += dt
            if problems:
                res.failed += 1
                res.problems += problems
        res.pass_s.append(pass_s)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(res.pass_s) > seconds:
            return res


def latency(res: Passes) -> dict:
    """Per-op latency, reported but not gated: on verify-ladder a run holds
    five ops, so its p50 is a single sample. The p90 is given only where at
    least ten samples lie beyond it."""
    lat = res.latency_s
    p90, beyond = None, 0
    if len(lat) >= 2:
        cut = statistics.quantiles(lat, n=10)[-1]
        beyond = sum(1 for x in lat if x > cut)
        p90 = cut * 1e3 if beyond >= 10 else None
    return {"op_p50_ms": statistics.median(lat) * 1e3, "op_p90_ms": p90,
            "samples": len(lat), "samples_beyond_p90": beyond}


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def stamp(prog, args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": "gmpy2" if prog.arith.HAVE_GMPY2 else "int",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "nproc": nproc,
        "commit": git_commit(),
    }


def end_to_end(setups: list[float], res: Passes) -> dict:
    """The gated metrics, named and ordered as in BENCHMARK.json."""
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(res.pass_s), "s"),
        "ops_per_s": (len(res.latency_s) / sum(res.pass_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(prog, ops, oracle, seconds: float, spans_path: Path):
    """Half the time untraced, half traced; the difference in median pass
    time is the tracing overhead."""
    plain = run_passes(prog, ops, oracle, seconds / 2)
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, prog.layers(), [prog.package, *prog.layers()])
    try:
        traced = run_passes(prog, ops, oracle, seconds / 2, tracer)
    finally:
        undo()
    tracer.write(spans_path)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics.update(tracing.overhead_metrics(
        statistics.median(plain.pass_s), statistics.median(traced.pass_s), len(tracer.spans)))
    return plain, traced, metrics


def report(result: dict, traced_s: float) -> None:
    st, metrics = result["stamp"], result["metrics"]
    print(f"champbench {st['workload']} seed={st['seed']} trace={st['trace']} "
          f"backend={st['backend']} python={st['python']} nproc={st['nproc']} "
          f"commit={st['commit']}")
    print(f"  fail_ratio   {result['failed']}/{result['attempted']} = {result['fail_ratio']}")
    if st["trace"] == 0:
        lat = result["latency"]
        notes = {
            "setup_s": f"median of {len(result['setups_s'])} set-ups",
            "wall_s": f"median of {len(result['passes_s'][0])} passes",
            "ops_per_s": f"{lat['samples']} ops",
        }
        for name, m in metrics.items():
            print(f"  {name:<12}{m['value']:>14.6g} {m['unit']:<4} {notes.get(name, '')}")
        print(f"  {'op_p50_ms':<12}{lat['op_p50_ms']:>14.6g} ms   {lat['samples']} samples")
        if lat["op_p90_ms"] is None:
            print(f"  {'op_p90_ms':<12}{'n/a':>14}      {lat['samples_beyond_p90']} samples "
                  f"beyond p90, ten needed")
        else:
            print(f"  {'op_p90_ms':<12}{lat['op_p90_ms']:>14.6g} ms   "
                  f"{lat['samples_beyond_p90']} samples beyond it")
        return
    print(f"  traced pass {metrics['trace.wall_s']['value']:.4g} s, untraced "
          f"{metrics['trace.untraced_wall_s']['value']:.4g} s, "
          f"{metrics['trace.spans']['value']} spans")
    for layer in (*tracing.LAYERS, "bench"):
        self_s = metrics[f"{layer}.self_s"]["value"]
        print(f"  {layer + '.self_s':<20}{self_s:>12.4f} s  "
              f"{100 * self_s / traced_s:5.1f}% of traced time")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.environ.pop("CHAMPCFE_MAX_DIGITS", None)  # the program's own default budget

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        if args.setup_only:
            print(set_up(args.workload, args.seed, workdir)[3])
            return 0
        setups = [probe_setup(args) for _ in range(SETUPS - 1)]
        prog, ops, oracle, own_setup = set_up(args.workload, args.seed, workdir)
        setups.append(own_setup)
        st = stamp(prog, args)
        if args.trace == 0:
            res_list = [run_passes(prog, ops, oracle, args.seconds)]
            metrics = end_to_end(setups, res_list[0])
        else:
            plain, traced, metrics = per_layer(
                prog, ops, oracle, args.seconds, OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
            res_list = [plain, traced]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r.latency_s) for r in res_list)
    failed = sum(r.failed for r in res_list)
    problems = [p for r in res_list for p in r.problems]
    for p in problems[:20]:
        print(f"oracle: {p}", file=sys.stderr)
    result = {
        "stamp": st,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "latency": latency(res_list[-1]),
        "setups_s": setups,
        "passes_s": [r.pass_s for r in res_list],
        "problems": problems,
    }
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n")
    report(result, sum(res_list[-1].pass_s))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
