"""Spans around the public functions of champcfe, and the per-layer
metrics derived from them.

A layer is one champcfe module. Its public functions are wrapped from the
outside, at every module attribute that binds them: `verify` and `cli`
import `digits_up_to` by name, so patching `champcfe.digits` alone would
miss most calls. Spans stay in memory as plain lists and are written out
once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections.abc import Sequence

LAYERS = ("cli", "verify", "cfe", "digits", "arith", "predict", "generations")

# The benchmark's own span around each operation; its self time is harness
# overhead (argv building, output capture), not program time.
OP_SPAN = "bench.op"

_LOG10_2 = math.log10(2)

# span record fields
NAME, START, END, PARENT, OP, DIGITS, TERMS = range(7)


def int_digits(n) -> int:
    """Decimal digits of an int from its bit length: exact or one too few,
    and always the same for the same value, so totals repeat exactly.
    Counting them exactly would cost a radix conversion, the very work
    being measured."""
    n = abs(n)
    if n == 0:
        return 1
    return int((n.bit_length() - 1) * _LOG10_2) + 1


def _ints_digits(values) -> int:
    if not isinstance(values, Sequence):
        return 0  # an iterator was consumed by the call; nothing to count
    return sum(int_digits(v) for v in values)


# Operand or output digit total per wrapped function: (args, kwargs, result).
DIGIT_SIZES = {
    "arith.digit_count": lambda a, k, r: r,
    "arith.to_digits": lambda a, k, r: len(r),
    "arith.from_digits": lambda a, k, r: len(a[0]),
    "arith.scaled_quotient": lambda a, k, r: int_digits(r),
    "arith.gcd": lambda a, k, r: int_digits(a[0]) + int_digits(a[1]),
    "arith.first_difference": lambda a, k, r: min(len(a[0]), len(a[1])),
    "digits.digits_up_to": lambda a, k, r: len(r.digits),
    "verify.long_divide": lambda a, k, r: len(r),
    "verify.measure_error": lambda a, k, r: len(a[2].digits),
    "verify.verify_hwm": lambda a, k, r: r.total_coefficient_digits,
    "verify.verify_child": lambda a, k, r: r.denominator_shape.total_length,
    "cfe.cfe_extract": lambda a, k, r: int_digits(a[0]) + int_digits(a[1]),
    "cfe.numerator_for_hwm": lambda a, k, r: int_digits(r),
    "cfe.convergent_from_coefficients": lambda a, k, r: int_digits(r.denominator),
    "cfe.numerator_tail_checks": lambda a, k, r: int_digits(a[1]),
    "cfe.read_coefficients": lambda a, k, r: _ints_digits(r),
    "cfe.write_coefficients": lambda a, k, r: _ints_digits(a[0]),
    "cfe.coefficient_digit_lengths": lambda a, k, r: sum(r),
    "predict.parse_denominator_shape": lambda a, k, r: len(a[0]),
    "generations.classify": lambda a, k, r: sum(a[0]),
}

# Terms returned, for the functions that return a coefficient list.
TERM_COUNTS = {"cfe.cfe_extract": len}

# Functions reported one by one; every other public function still gets
# spans and counts towards its module's self time.
REPORTED = tuple(DIGIT_SIZES) + ("generations.child_positions", "cli.main")


class Tracer:
    """Collects spans [name, start, end, parent index, op id, digits,
    terms]."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op_id = -1
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, self.clock(), 0.0, parent, self.op_id, 0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: list) -> None:
        span[END] = self.clock()
        self._stack.pop()

    def wrap(self, name: str, fn):
        size = DIGIT_SIZES.get(name)
        terms = TERM_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if size is not None:
                span[DIGITS] = size(args, kwargs, result)
            if terms is not None:
                span[TERMS] = terms(result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fp:
            for s in self.spans:
                fp.write(json.dumps(s, separators=(",", ":")) + "\n")


def public_functions(modules) -> dict[str, object]:
    """'<layer>.<function>' -> function, for every public function defined
    (not merely imported) in one of the modules."""
    found = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in vars(mod).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                found[f"{layer}.{attr}"] = obj
    return found


def install(tracer: Tracer, modules, binding_sites):
    """Replace each public function of `modules` by a traced wrapper at
    every attribute of `binding_sites` that holds it. Returns an undo
    callable that restores the originals."""
    wrappers = {}
    for name, fn in public_functions(modules).items():
        wrappers[id(fn)] = (fn, tracer.wrap(name, fn))
    patched = []
    for site in binding_sites:
        for attr, obj in list(vars(site).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(site, attr, hit[1])
                patched.append((site, attr, obj))

    def undo():
        for site, attr, obj in patched:
            setattr(site, attr, obj)

    return undo


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (children clipped to the parent, overlaps counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        lo, hi = s[START], s[END]
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((hi - lo) - covered)
    return out


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-function calls, self_s, incl_s and digits for the REPORTED
    functions, self_s per layer and for the harness, and the digit rate
    and term count the workload map names. Inclusive time counts only the
    outermost activation of a function, so recursion is not counted
    twice."""
    own = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    digits: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own[i]
        digits[name] = digits.get(name, 0) + s[DIGITS]
        outer = True
        p = s[PARENT]
        while p >= 0:
            if spans[p][NAME] == name:
                outer = False
                break
            p = spans[p][PARENT]
        if outer:
            incl_s[name] = incl_s.get(name, 0.0) + (s[END] - s[START])

    m: dict[str, tuple[float, str]] = {}
    for name in REPORTED:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        m[f"{name}.incl_s"] = (incl_s.get(name, 0.0), "s")
        if name in DIGIT_SIZES:
            m[f"{name}.digits"] = (digits.get(name, 0), "digits")
    for layer in LAYERS:
        total = sum((v for k, v in self_s.items() if k.split(".", 1)[0] == layer), 0.0)
        m[f"{layer}.self_s"] = (total, "s")
    m["bench.self_s"] = (self_s.get(OP_SPAN, 0.0), "s")
    d = digits.get("digits.digits_up_to", 0)
    t = self_s.get("digits.digits_up_to", 0.0)
    m["digits.digits_up_to.ns_per_digit"] = (t / d * 1e9 if d else 0.0, "ns/digit")
    m["cfe.cfe_extract.terms"] = (
        sum(s[TERMS] for s in spans if s[NAME] == "cfe.cfe_extract"),
        "count",
    )
    return m


def overhead_metrics(untraced_wall_s: float, traced_wall_s: float, spans: int) -> dict:
    """Median pass time with and without tracing, and their difference."""
    return {
        "trace.untraced_wall_s": (untraced_wall_s, "s"),
        "trace.wall_s": (traced_wall_s, "s"),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
        "trace.spans": (spans, "count"),
    }
