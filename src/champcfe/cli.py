"""Command-line front end.

Subcommands: digits, predict, compute, verify, classify, child, bench.
Exit code 0 means success with all checks confirmed, 2 means the checks ran
and at least one prediction was falsified, 1 is an operational failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from . import arith, cfe, generations, predict, verify
from .digits import DEFAULT_DIGIT_BUDGET, DigitBudgetError, digits_up_to

ENV_BUDGET = "CHAMPCFE_MAX_DIGITS"

DEEP_HWM = 9  # levels from here up need an explicit opt-in
MAX_VERIFY_HWM = 10
MAX_COMPUTE_HWM = 11


def _digit_budget(flag: int | None) -> int:
    """The --max-digits flag, else the environment override, else the default."""
    if flag is None:
        raw = os.environ.get(ENV_BUDGET, str(DEFAULT_DIGIT_BUDGET))
        if not (raw.isascii() and raw.isdigit()):
            raise ValueError(f"{ENV_BUDGET} must be a non-negative integer, got {raw!r}")
        flag = int(raw)
    if flag < 0:
        raise ValueError(f"the digit budget must be >= 0, got {flag}")
    return flag


def _emit(text: str, args: argparse.Namespace) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_cell(value) -> str:
    if isinstance(value, dict):
        return "/".join(str(x) for x in value.values())
    return "" if value is None else str(value)


def _render(payload, fmt: str, text) -> str:
    """A command's payload as JSON, as CSV with a header row (one record or a
    list of them), or through the command's own text function."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    if fmt == "csv":
        records = payload if isinstance(payload, list) else [payload]
        rows = [list(records[0])] + [[_csv_cell(v) for v in r.values()] for r in records]
        return "".join(",".join(row) + "\n" for row in rows)
    return text(payload)


def _require_deep(n: int, args: argparse.Namespace, ceiling: int, what: str) -> None:
    if n > ceiling:
        raise ValueError(
            f"{what} for HWM #{n} is beyond the desk-scale budget (max {ceiling})"
        )
    if n >= DEEP_HWM and not args.deep:
        raise ValueError(
            f"{what} for HWM #{n} takes minutes; pass --deep to confirm"
        )


def cmd_digits(args: argparse.Namespace) -> int:
    prefix = digits_up_to(args.position, max_digits=args.max_digits)
    _emit(prefix.digits + "\n", args)
    return 0


def _prediction_record(n: int, child: bool) -> dict:
    if n < 4:
        raise ValueError("predictions start at HWM #4")
    if child and n < predict.FIRST_CHILD_HWM:
        raise ValueError(f"child predictions start after HWM #{predict.FIRST_CHILD_HWM}")
    err = predict.child_error_profile(n) if child else predict.error_profile(n)
    failing, fails_as = predict.failing_integer(n)
    record = {
        "hwm": n,
        "ncd": predict.ncd(n),
        "error_mantissa": str(err).split("E")[0],
        "error_exponent": err.exponent,
        "denominator_sci": str(predict.denominator_sci(n)),
        "hwm_length": predict.hwm_length(n),
        "failing_integer": failing,
        "fails_as": fails_as,
        "child_length": None,
        "child_shape": None,
    }
    if child:
        shape = predict.child_denominator_shape(n)
        blocks = ("preamble_length", "nines_count", "penultimate_length", "zeroes_count")
        record["child_length"] = predict.child_length(n - 1)
        record["child_shape"] = {**dict(zip(blocks, shape)), "total_length": sum(shape)}
    return record


def _record_text(record: dict) -> str:
    width = max(len(k) for k in record)
    lines = [f"{k:<{width}}  {record[k]}" for k in record if record[k] is not None]
    return "\n".join(lines) + "\n"


def cmd_predict(args: argparse.Namespace) -> int:
    record = _prediction_record(args.hwm, args.child)
    _emit(_render(record, args.format, _record_text), args)
    return 0


def cmd_compute(args: argparse.Namespace) -> int:
    n = args.hwm
    _require_deep(n, args, MAX_COMPUTE_HWM, "coefficient computation")
    prefix = digits_up_to(cfe.required_prefix_position(n), max_digits=args.max_digits)
    num, den = cfe.hwm_convergent(n, prefix)
    terms = cfe.cfe_extract(num, den, final_index_parity="odd")
    with open(args.out, "w", newline="") as fp:
        cfe.write_coefficients(terms, fp)
    if args.emit_numerator:
        sys.stdout.write(arith.to_digits(num) + "\n")
    return 0


def _profile_text(profile_dict: dict) -> str:
    lines = []
    for key, value in profile_dict.items():
        if key == "checks":
            continue
        lines.append(f"{key}: {value}")
    lines.append("checks:")
    for c in profile_dict["checks"]:
        mark = "ok " if c["ok"] else "FAIL"
        lines.append(
            f"  [{mark}] {c['field']}: predicted={c['predicted']} observed={c['observed']}"
        )
    return "\n".join(lines) + "\n"


def _emit_profile(profile, args: argparse.Namespace) -> int:
    """Write a verification profile as JSON or text; its exit code."""
    _emit(_render(profile.as_dict(), args.format, _profile_text), args)
    return 0 if profile.status == verify.CONFIRMED else 2


def cmd_verify(args: argparse.Namespace) -> int:
    n = args.hwm
    _require_deep(n, args, MAX_VERIFY_HWM, "verification")
    profile = verify.verify_hwm(
        n,
        compute_error=args.error,
        check_next_hwm=not args.no_next,
        max_digits=args.max_digits,
    )
    return _emit_profile(profile, args)


def _classify_text(rows: list[dict]) -> str:
    return "".join(
        f"{r['index']:>8}  {r['length']:>12}  gen {r['generation']}\n" for r in rows
    )


def cmd_classify(args: argparse.Namespace) -> int:
    with open(args.coefficients) as fp:
        lengths = cfe.coefficient_digit_lengths(fp)
    entries = generations.classify(lengths)
    payload = [
        {"index": e.coefficient_index, "length": e.digit_length, "generation": e.generation}
        for e in entries
    ]
    _emit(_render(payload, args.format, _classify_text), args)
    scan = generations.child_positions(entries)
    if scan.violations:
        for v in scan.violations:
            print(f"violation: {v}", file=sys.stderr)
        return 2
    return 0


def cmd_child(args: argparse.Namespace) -> int:
    with open(args.coefficients) as fp:
        terms = cfe.read_coefficients(fp)
    profile = verify.verify_child(
        args.coefficient_index, terms, max_digits=args.max_digits
    )
    return _emit_profile(profile, args)


def cmd_bench(args: argparse.Namespace) -> int:
    if args.max_hwm < 4:
        raise ValueError("benchmarking starts at HWM #4")
    _require_deep(args.max_hwm, args, MAX_VERIFY_HWM, "benchmarking")
    rows = []
    previous = None
    status = 0
    for n in range(4, args.max_hwm + 1):
        start = time.perf_counter()
        profile = verify.verify_hwm(
            n, compute_error=args.error, check_next_hwm=False, max_digits=args.max_digits
        )
        elapsed = time.perf_counter() - start
        ratio = "" if previous in (None, 0.0) else f"{elapsed / previous:8.1f}x"
        rows.append(
            f"{n:>3} {profile.c10_digits_used:>12} {profile.total_coefficient_digits:>12} "
            f"{elapsed:>10.3f}s {ratio:>9} {profile.status}"
        )
        if profile.status != verify.CONFIRMED:
            status = 2
        previous = elapsed
    header = (
        f"{'N':>3} {'c10 digits':>12} {'cfe digits':>12} {'time':>11} {'ratio':>9} status"
    )
    note = "# reference scaling: roughly 12x memory and 24x time per level\n"
    _emit(note + header + "\n" + "\n".join(rows) + "\n", args)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="champcfe",
        description="Champernowne base-10 continued-fraction toolkit",
    )
    parser.add_argument(
        "--max-digits",
        type=int,
        default=None,
        help=f"digit budget override (also env {ENV_BUDGET})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digits", help="write constant digits up to a position")
    p.add_argument("--position", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_digits)

    p = sub.add_parser("predict", help="closed-form predictions for a level")
    p.add_argument("--hwm", type=int, required=True)
    p.add_argument("--child", action="store_true")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_predict)

    p = sub.add_parser("compute", help="compute coefficients up to a level")
    p.add_argument("--hwm", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--emit-numerator", action="store_true")
    p.add_argument("--deep", action="store_true")
    p.set_defaults(handler=cmd_compute)

    p = sub.add_parser("verify", help="verify the predictions for a level")
    p.add_argument("--hwm", type=int, required=True)
    p.add_argument("--error", action="store_true", help="measure the error too")
    p.add_argument("--no-next", action="store_true", help="skip the next-level check")
    p.add_argument("--deep", action="store_true")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_verify)

    p = sub.add_parser("classify", help="assign generations to coefficients")
    p.add_argument("--coefficients", required=True)
    p.add_argument("--format", choices=("text", "csv", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("child", help="verify a child convergent from coefficients")
    p.add_argument("--coefficient-index", type=int, required=True)
    p.add_argument("--coefficients", required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_child)

    p = sub.add_parser("bench", help="time verify_hwm per level")
    p.add_argument("--max-hwm", type=int, required=True)
    p.add_argument("--error", action="store_true")
    p.add_argument("--deep", action="store_true")
    p.add_argument("--out", default=None)
    p.set_defaults(handler=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        args.max_digits = _digit_budget(args.max_digits)
        return args.handler(args)
    except generations.AnchorError as exc:
        # the prediction failed against the data: a result, not a malfunction
        print(f"violation: {exc}", file=sys.stderr)
        return 2
    except (
        DigitBudgetError,
        cfe.PrecisionError,
        verify.InsufficientTruthError,
        ValueError,
        OSError,
        json.JSONDecodeError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    """Console entry point: it owns the process, so it lifts the int/str cap
    that predictions from level 4,300 exceed; main() changes no global state."""
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    sys.exit(main())


if __name__ == "__main__":
    run()
