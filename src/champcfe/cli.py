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

from . import cfe, digits, generations, predict, verify
from .digits import DEFAULT_DIGIT_BUDGET, DigitBudgetError, digits_up_to

ENV_BUDGET = "CHAMPCFE_MAX_DIGITS"

DEEP_HWM = 10  # levels from here up need an explicit opt-in
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
            f"{what} for HWM #{n} works on millions of digits; pass --deep to confirm"
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
    p = cfe.required_prefix_position(n)
    # the chain's Decimals have exponent 0: str() is the digits, no radix conversion
    (num, _), terms, _, _ = cfe._hwm_chain(n, p, digits._truth_value(p, args.max_digits))
    with open(args.out, "w", newline="") as fp:
        cfe._write_lines(map(str, terms), fp)
    if args.emit_numerator:
        sys.stdout.write(str(num) + "\n")
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
    # newline="": a CR stays in its line, which _coefficient_lines rejects
    with open(args.coefficients, newline="") as fp:
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
    k = args.coefficient_index
    with open(args.coefficients, newline="") as fp:
        # verify_child reads lines 0..k only; passed with no name here, they
        # are freed as soon as it has converted them
        profile = verify.verify_child(
            k, cfe._coefficient_lines(fp)[: k + 1], max_digits=args.max_digits
        )
    return _emit_profile(profile, args)


def _bench_text(payload: dict) -> str:
    note = "# reference scaling: roughly 12x memory and 24x time per level\n"
    header = f"{'N':>3} {'c10 digits':>12} {'cfe digits':>12} {'time':>11} {'ratio':>9} status\n"
    rows, previous = [], None
    for r in payload["levels"]:
        elapsed = r["seconds"]
        ratio = "" if previous in (None, 0.0) else f"{elapsed / previous:8.1f}x"
        rows.append(
            f"{r['hwm']:>3} {r['c10_digits_used']:>12} {r['total_coefficient_digits']:>12} "
            f"{elapsed:>10.3f}s {ratio:>9} {r['status']}\n"
        )
        previous = elapsed
    return note + header + "".join(rows)


def cmd_bench(args: argparse.Namespace) -> int:
    import platform  # only bench reads it: every other command starts without the import

    if args.max_hwm < 4:
        raise ValueError("benchmarking starts at HWM #4")
    _require_deep(args.max_hwm, args, MAX_VERIFY_HWM, "benchmarking")
    levels = []
    for n in range(4, args.max_hwm + 1):
        start = time.perf_counter()
        profile = verify.verify_hwm(
            n, compute_error=args.error, check_next_hwm=False, max_digits=args.max_digits
        )
        levels.append(
            {
                "hwm": n,
                "c10_digits_used": profile.c10_digits_used,
                "total_coefficient_digits": profile.total_coefficient_digits,
                "seconds": time.perf_counter() - start,
                "status": profile.status,
            }
        )
    payload = {
        "backend": "int",
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "levels": levels,
    }
    _emit(_render(payload, args.format, _bench_text), args)
    return 0 if all(r["status"] == verify.CONFIRMED for r in levels) else 2


class _UsageError(Exception):
    """A command line argparse rejects."""


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error in place of printing usage and exiting 2, so
    main reports it as one error: line; subparsers are made of this class too."""

    def error(self, message: str):
        raise _UsageError(f"{self.prog}: {message}")


_OUT = ("--out", {"default": None})
_DEEP = ("--deep", {"action": "store_true"})


def _required_int(flag: str) -> tuple:
    return flag, {"type": int, "required": True}


def _format(*choices: str) -> tuple:
    return "--format", {"choices": choices, "default": "text"}


# Each subcommand as (name, help, options): cmd_<name> handles it, and its
# options are (flag, add_argument keywords) pairs in help order.
COMMANDS = (
    ("digits", "write constant digits up to a position", (_required_int("--position"), _OUT)),
    (
        "predict",
        "closed-form predictions for a level",
        (
            _required_int("--hwm"),
            ("--child", {"action": "store_true"}),
            _format("text", "json", "csv"),
            _OUT,
        ),
    ),
    (
        "compute",
        "compute coefficients up to a level",
        (
            _required_int("--hwm"),
            ("--out", {"required": True}),
            ("--emit-numerator", {"action": "store_true"}),
            _DEEP,
        ),
    ),
    (
        "verify",
        "verify the predictions for a level",
        (
            _required_int("--hwm"),
            ("--error", {"action": "store_true", "help": "measure the error too"}),
            ("--no-next", {"action": "store_true", "help": "skip the next-level check"}),
            _DEEP,
            _format("text", "json"),
            _OUT,
        ),
    ),
    (
        "classify",
        "assign generations to coefficients",
        (("--coefficients", {"required": True}), _format("text", "csv", "json"), _OUT),
    ),
    (
        "child",
        "verify a child convergent from coefficients",
        (
            _required_int("--coefficient-index"),
            ("--coefficients", {"required": True}),
            _format("text", "json"),
            _OUT,
        ),
    ),
    (
        "bench",
        "time verify_hwm per level",
        (
            _required_int("--max-hwm"),
            ("--error", {"action": "store_true"}),
            _DEEP,
            _format("text", "json"),
            _OUT,
        ),
    ),
)


# The top-level help flag as argparse reads it: any token that begins with -h
# (-hh packs a second -h and prints help, -hv is an error), and the
# abbreviations of --help that allow_abbrev accepts.
_LONG_HELP = ("--h", "--he", "--hel", "--help")


def _commands_for(argv: list[str]) -> tuple:
    """The COMMANDS entries a parse of argv needs: those a token names, or
    all of them for a help request or a line that names no command, where
    argparse prints or reports the whole list."""
    tokens = set(argv)
    named = tuple(c for c in COMMANDS if c[0] in tokens)
    if not named or any(t.startswith("-h") or t in _LONG_HELP for t in tokens):
        return COMMANDS
    return named


def build_parser(
    argv: list[str] | None = None, commands: tuple | None = None
) -> argparse.ArgumentParser:
    """The parser for one command line, argv (sys.argv[1:] when None), with a
    subparser for each entry of commands (by default _commands_for(argv)).

    argparse picks a subparser by an exact token alone, so a parser that
    holds only the named commands accepts argv exactly when the one with all
    seven does, and gives the same namespace; only help and some usage
    errors list the commands (see _parse_args). A call does not pay for the
    subparsers it cannot reach. Handlers are looked up by name here, not
    bound at import, so a rebound cmd_* attribute is the one that runs."""
    if commands is None:
        commands = _commands_for(sys.argv[1:] if argv is None else argv)
    parser = _Parser(
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
    for name, help_text, options in commands:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in options:
            p.add_argument(flag, **kwargs)
        p.set_defaults(handler=globals()[f"cmd_{name}"])
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the parser of the commands it names. After a usage
    error from that parser, argv is parsed again with all seven commands,
    which raises the same error as the full parser words it: an "invalid
    choice" lists every command."""
    commands = _commands_for(argv)
    try:
        return build_parser(argv, commands).parse_args(argv)
    except _UsageError:
        if commands is COMMANDS:
            raise
        return build_parser(argv, COMMANDS).parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _parse_args(argv)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
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
