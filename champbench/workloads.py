"""The benchmark's workloads: the op list each one makes from a seed, how
an op calls champcfe, and the oracle every output is checked against.

Each workload stresses a different end of the program:

- verify-ladder runs the full Table 1 verification, levels 4 to 8. Its
  0.5 to 1 million-digit operands put nearly all the time into `arith`
  radix conversion, `verify.long_divide`/`measure_error` and Euclid.
- small-requests is interactive use: short `cli.main` calls where the
  fixed digit-generation chunk dominates and `arith` does almost nothing,
  so it bypasses any radix-conversion work.
- child-roundtrip writes the level-8 coefficients and reads them back:
  about a thousand small conversions instead of a few huge ones, plus the
  child verifier and the generation classifier.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("verify-ladder", "small-requests", "child-roundtrip")

LADDER = (4, 5, 6, 7, 8)
CHILD_LEVEL = 8
CHILD_INDICES = (101, 357)
SMALL_DIGITS_OPS = 40
SMALL_PREDICT_OPS = 32
SMALL_VERIFY_LEVELS = (4, 5, 6, 7)
SMALL_VERIFY_PER_LEVEL = 7  # equal counts, so a seed does not change the pass cost
MAX_POSITION = 100_000

ORACLE_FILE = Path(__file__).resolve().parent / "oracle.json"


@dataclass(frozen=True)
class Op:
    """One call into champcfe: `verify_hwm` with a level, or `cli` with an
    argv list."""

    kind: str
    args: tuple


@dataclass
class Outcome:
    rc: int | None = None
    out: str = ""
    err: str = ""
    profile: object = None


def make_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The op list of one pass; the same seed always gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "verify-ladder":
        levels = list(LADDER)
        rng.shuffle(levels)
        return [Op("verify_hwm", (n,)) for n in levels]
    if workload == "small-requests":
        ops = [
            Op("cli", ("digits", "--position", str(rng.randint(1, MAX_POSITION))))
            for _ in range(SMALL_DIGITS_OPS)
        ]
        for _ in range(SMALL_PREDICT_OPS):
            n = rng.randint(4, 14)
            child = ("--child",) if n >= 6 and rng.random() < 0.5 else ()
            ops.append(Op("cli", ("predict", "--hwm", str(n), *child, "--format", "json")))
        for n in SMALL_VERIFY_LEVELS:
            argv = ("verify", "--hwm", str(n), "--error", "--format", "json")
            ops += [Op("cli", argv)] * SMALL_VERIFY_PER_LEVEL
        rng.shuffle(ops)
        return ops
    if workload == "child-roundtrip":
        coeffs = str(workdir / f"coeffs-{seed}.txt")
        readers = [Op("cli", ("classify", "--coefficients", coeffs, "--format", "csv"))]
        readers += [
            Op("cli", ("child", "--coefficient-index", str(k), "--coefficients", coeffs,
                       "--format", "json"))
            for k in CHILD_INDICES
        ]
        rng.shuffle(readers)
        return [Op("cli", ("compute", "--hwm", str(CHILD_LEVEL), "--out", coeffs))] + readers
    raise ValueError(f"unknown workload {workload!r}")


def run_op(prog, op: Op) -> Outcome:
    """Call champcfe for one op. Functions are looked up on their modules
    at call time, so traced wrappers installed there are the ones run."""
    if op.kind == "verify_hwm":
        profile = prog.verify.verify_hwm(op.args[0], compute_error=True, check_next_hwm=True)
        return Outcome(profile=profile)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = prog.cli.main(list(op.args))
    return Outcome(rc=rc, out=out.getvalue(), err=err.getvalue())


def profile_sha256(profile: dict) -> str:
    """Hash of a profile's as_dict() without its timing block."""
    d = {k: v for k, v in profile.items() if k != "timings"}
    return hashlib.sha256(json.dumps(d, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def constant_digits(p: int) -> str:
    """'0' followed by the first p fractional digits, by plain
    concatenation of 1, 2, 3, ..."""
    parts, total, i = ["0"], 1, 1
    while total <= p:
        s = str(i)
        parts.append(s)
        total += len(s)
        i += 1
    return "".join(parts)[: p + 1]


def _sci(mantissa: str, exponent: int) -> str:
    return f"{mantissa}E{exponent:+d}"


class Oracle:
    """Expected outputs: published values, behaviour-lock hashes and a
    digit string the benchmark builds itself."""

    def __init__(self, ops: list[Op]):
        self.data = json.loads(ORACLE_FILE.read_text())
        positions = [int(op.args[2]) for op in ops if op.kind == "cli" and op.args[0] == "digits"]
        self.digits = constant_digits(max(positions, default=0))

    def check(self, op: Op, outcome: Outcome) -> list[str]:
        """Every way the outcome differs from the oracle; empty when right."""
        if op.kind == "verify_hwm":
            return self._hwm_profile(op.args[0], outcome.profile.as_dict())
        problems = [] if outcome.rc == 0 else [f"exit code {outcome.rc}: {outcome.err.strip()}"]
        command = op.args[0]
        try:
            return problems + getattr(self, "_" + command)(op.args, outcome)
        except (ValueError, KeyError, TypeError, OSError) as exc:  # unparsable output
            return problems + [f"{command} output unreadable: {exc!r}"]

    def _digits(self, argv, outcome) -> list[str]:
        p = int(argv[2])
        if outcome.out != self.digits[: p + 1] + "\n":
            return [f"digits --position {p}: wrong digits"]
        return []

    def _predict(self, argv, outcome) -> list[str]:
        d = self.data
        rec = json.loads(outcome.out)
        n = int(argv[2])
        key = str(n)
        got, want = {}, {}
        got["hwm"], want["hwm"] = rec["hwm"], n
        got["hwm_length"], want["hwm_length"] = rec["hwm_length"], d["a143534_hwm_length"][key]
        if key in d["ncd"]:
            got["ncd"], want["ncd"] = rec["ncd"], d["ncd"][key]
        if key in d["denominator_sci"]:
            got["denominator_sci"], want["denominator_sci"] = (
                rec["denominator_sci"], d["denominator_sci"][key])
        if key in d["failing_integer"]:
            got["failing"] = [rec["failing_integer"], rec["fails_as"]]
            want["failing"] = d["failing_integer"][key]
        error = _sci(rec["error_mantissa"], rec["error_exponent"])
        if "--child" in argv:
            child = d["child_after_hwm"]
            if key in child["length"]:
                got["child_length"], want["child_length"] = rec["child_length"], child["length"][key]
            if key in child["error"]:
                got["error"], want["error"] = error, child["error"][key]
            if key in child["shape_lengths"]:
                got["shape"] = list(rec["child_shape"].values())
                want["shape"] = child["shape_lengths"][key]
        elif key in d["error"]:
            got["error"], want["error"] = error, d["error"][key]
        return [f"predict --hwm {n} {k}: {got[k]!r} != {want[k]!r}" for k in want if got[k] != want[k]]

    def _verify(self, argv, outcome) -> list[str]:
        return self._hwm_profile(int(argv[2]), json.loads(outcome.out))

    def _hwm_profile(self, n: int, prof: dict) -> list[str]:
        key = str(n)
        t1 = self.data["table1_verified"]
        error = next((c["observed"] for c in prof["checks"] if c["field"] == "error"), None)
        got = {
            "status": prof["status"],
            "failed_checks": [c["field"] for c in prof["checks"] if not c["ok"]],
            "coefficient_index": prof["coefficient_index"],
            "observed_ncd": prof["observed_ncd"],
            "error": error,
            "total_coefficient_digits": prof["total_coefficient_digits"],
            "c10_digits_used": prof["c10_digits_used"],
            "sha256": profile_sha256(prof),
        }
        want = {
            "status": "confirmed",
            "failed_checks": [],
            "coefficient_index": t1["coefficient_index"][key],
            "observed_ncd": self.data["ncd"][key],
            "error": self.data["error"][key],
            "total_coefficient_digits": t1["total_coefficient_digits"][key],
            "c10_digits_used": t1["c10_digits_used"][key],
            "sha256": self.data["sha256"]["verify_hwm"][key],
        }
        return [f"verify hwm {n} {k}: {got[k]!r} != {want[k]!r}" for k in want if got[k] != want[k]]

    def _compute(self, argv, outcome) -> list[str]:
        raw = Path(argv[4]).read_bytes()
        problems = []
        lines = raw.count(b"\n")
        count = self.data["table1_verified"]["coefficient_index"][argv[2]]
        if lines != count:
            problems.append(f"compute: {lines} coefficients, expected {count}")
        if hashlib.sha256(raw).hexdigest() != self.data["sha256"]["coefficients_hwm8"]:
            problems.append("compute: coefficient file differs from the recorded hash")
        return problems

    def _classify(self, argv, outcome) -> list[str]:
        d = self.data
        count = d["table1_verified"]["coefficient_index"][str(CHILD_LEVEL)]
        # the seed maximum #1 and maximum #4 precede the published table
        rows = [(d["a143533_hwm_index"][k], d["a143534_hwm_length"][k], 1) for k in ("1", "4")]
        rows += [tuple(r) for r in d["generation_table"]["rows"] if r[0] < count]
        want = "index,length,generation\n" + "".join(f"{i},{L},{g}\n" for i, L, g in rows)
        return [] if outcome.out == want else ["classify: rows differ from the generation table"]

    def _child(self, argv, outcome) -> list[str]:
        prof = json.loads(outcome.out)
        k = argv[2]
        pub = self.data["children"][k]
        shape = prof["denominator_shape"]
        error = next((c["observed"] for c in prof["checks"] if c["field"] == "error"), None)
        got = {
            "status": prof["status"],
            "failed_checks": [c["field"] for c in prof["checks"] if not c["ok"]],
            "follows_hwm": prof["follows_hwm"],
            "error": error,
            "child_length": prof["child_length"],
            "lengths": [
                len(shape["preamble"]), shape["nines_count"], len(shape["penultimate"]),
                shape["zeroes_count"], shape["total_length"],
            ],
            "observed_ncd": prof["observed_ncd"],
            "first_fail": prof["first_fail"],
            "preamble": shape["preamble"],
            "penultimate": shape["penultimate"],
            "sha256": profile_sha256(prof),
        }
        want = {"status": "confirmed", "failed_checks": []}
        want.update({f: v for f, v in pub.items() if f in got})
        want["sha256"] = self.data["sha256"]["verify_child"][k]
        return [f"child {k} {f}: {got[f]!r} != {want[f]!r}" for f in want if got[f] != want[f]]
