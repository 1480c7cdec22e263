"""Ground-truth verification of the convergent predictions.

Each convergent is rebuilt from the prediction formulas, its decimal
expansion is compared digit-for-digit against generated constant digits,
and every observation (correct-digit count, failing integer, substituted
tail, error, coefficient statistics) is checked off against its predictor.
A mismatch is not an exception: it is reported as a violation with a
machine-readable field diff.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from decimal import Decimal, InvalidOperation, localcontext
from functools import partial
from typing import Callable, Sequence

from . import arith, cfe, digits, generations, predict
from .digits import (
    DEFAULT_DIGIT_BUDGET,
    DigitLocation,
    DigitPrefix,
    digits_up_to,  # noqa: F401 -- unused here; champbench's tracer test patches this binding
    locate_position,
)
from .predict import SciDecimal

CONFIRMED = "confirmed"
VIOLATION = "violation"

PROFILE_VERSION = 1

GUARD_DIGITS = 10  # constant digits generated past the last reported error digit


class InsufficientTruthError(Exception):
    """The generated digits do not reach far enough for the measurement."""

    def __init__(self, required: int, detail: str = ""):
        self.required = required
        msg = f"at least {required} constant digits are required"
        super().__init__(msg + (f" ({detail})" if detail else ""))


@dataclass(frozen=True)
class FieldCheck:
    field: str
    predicted: object
    observed: object
    ok: bool

    def as_dict(self) -> dict:
        return {
            "field": self.field,
            "predicted": _jsonable(self.predicted),
            "observed": _jsonable(self.observed),
            "ok": self.ok,
        }


def _check(name: str, predicted, observed) -> FieldCheck:
    return FieldCheck(name, predicted, observed, predicted == observed)


def _jsonable(value):
    if isinstance(value, SciDecimal):
        return str(value)
    if isinstance(value, predict.DenominatorShape):
        return {**vars(value), "total_length": value.total_length}
    if isinstance(value, DigitLocation):
        return {"integer": value.integer, "digit_ordinal": value.digit_ordinal}
    if isinstance(value, tuple):
        return list(value)
    return value


def _residual(numerator: Decimal, parts: Sequence[Decimal], p: int, value: Decimal) -> Decimal:
    """num·10^p − V·den for the truncation V/10^p of the constant, where
    value is V as a Decimal: the one exact quantity that every digit-level
    observation is read from. parts are exact Decimals whose sum is den,
    [den] itself or _denominator_blocks in short form, so that each
    product with V costs only the digits of its part."""
    with localcontext(arith.EXACT):
        diff = numerator.scaleb(p)
        for part in parts:
            diff -= value * part
    return diff


def _decimal_pair(numerator: int, denominator: int) -> tuple[Decimal, Decimal]:
    """A caller's convergent as exact Decimals, its denominator checked."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return arith.to_decimal(numerator), arith.to_decimal(denominator)


def _first_failure(
    numerator: Decimal,
    denominator: Decimal,
    p: int,
    window: Callable[[int], str],
    diff: Decimal,
    tail_len: int = 0,
) -> tuple[int, DigitLocation, int, str] | None:
    """(first position where the expansion of numerator/denominator leaves
    the truth digits through position p, where that digit lives, what the
    expansion reads in place of the failing integer, tail_len expansion
    digits from that position), or None when the expansion matches every
    truth digit. window(a) gives the truth digits of positions a..p.

    floor(num·10^p/den) = V + floor(diff/den), and that carry is small, so
    the expansion differs from truth only in a short low end: widen it until
    the carry stops inside it, and never expand the whole window.
    """
    if not 0 <= numerator < denominator:
        raise ValueError("value must lie in [0, 1)")
    with localcontext(arith.EXACT):
        carry, rem = divmod(diff, denominator)
        carry -= rem < 0  # divmod truncates toward zero; the carry is the floor
        if not carry:
            return None
        size = p + 1
        w = carry.adjusted() + 2
        while True:
            w = min(w, size)
            low_digits = window(size - w)
            low = Decimal(low_digits) + carry
            if 0 <= low.scaleb(-w) < 1:  # always true once w == size, as 0 <= V + carry < 10^p
                break
            w *= 2
    base = size - w
    conv = str(low).rjust(w, "0")  # low has exponent 0: str() is its digits
    pos = base + arith.first_difference(conv, low_digits)
    loc = locate_position(pos)
    start = pos - loc.digit_ordinal + 1  # first digit of the failing integer
    conv = window(start)[: base - start] + conv if start < base else conv[start - base :]
    fails_as = int(conv[: len(str(loc.integer))])
    return pos, loc, fails_as, conv[pos - start : pos - start + tail_len]


def measure_ncd(
    numerator: int, denominator: int, truth: DigitPrefix
) -> tuple[int, DigitLocation]:
    """Number of correct digits (the position of the first wrong one,
    counting the leading '0') and where that digit lives."""
    num, den = _decimal_pair(numerator, denominator)
    p = truth.last_position
    diff = _residual(num, [den], p, Decimal(truth.digits))
    found = _first_failure(num, den, p, lambda a: truth.digits[a:], diff)
    if found is None:
        raise InsufficientTruthError(
            required=p + 2,
            detail="no mismatch within the supplied digits",
        )
    return found[0], found[1]


def measure_error(
    numerator: int,
    denominator: int,
    truth: DigitPrefix,
    mantissa_digits: int,
) -> SciDecimal:
    """Leading mantissa digits and exponent of (convergent - truncation),
    exact. Positive while the convergent runs above the constant.

    The truncation stands in for the constant itself, so the prefix must
    reach GUARD_DIGITS past the last reported mantissa digit; the check is
    made against the measured exponent and failure names the requirement.
    On a prefix far too short the measurement sees only the truncation
    artifact, so the named requirement is a lower bound that grows on
    retry until it stabilizes.
    """
    if mantissa_digits < 1:
        raise ValueError("mantissa_digits must be >= 1")
    num, den = _decimal_pair(numerator, denominator)
    diff = _residual(num, [den], truth.last_position, Decimal(truth.digits))
    return _error(diff, den, truth.last_position, mantissa_digits)


def _error(diff: Decimal, denominator: Decimal, p: int, mantissa_digits: int) -> SciDecimal:
    """measure_error from the residual diff of a prefix ending at position p."""
    if diff == 0:
        raise InsufficientTruthError(
            required=p + 2, detail="convergent equals the truncation exactly"
        )
    sign = 1 if diff > 0 else -1
    ad = diff.copy_abs()
    # the error is ad / (den·10^p); its leading digits take a power of ten
    # about the size of the mantissa, not of 10^p; // floors, as ad > 0
    e0 = ad.adjusted() - denominator.adjusted() - p
    k = mantissa_digits - e0 - p
    with localcontext(arith.EXACT):
        ts = str(ad.scaleb(k) // denominator)
    exponent = e0 + (len(ts) - 1 - mantissa_digits)
    required = max(0, -exponent) + mantissa_digits + GUARD_DIGITS
    if p < required:
        raise InsufficientTruthError(required=required)
    return SciDecimal(sign, ts[:mantissa_digits], exponent)


class _Profile:
    """Status and serialization shared by the profiles: as_dict() lists every
    field but checks in declaration order, between the header and the status."""

    kind: str
    checks: list[FieldCheck]

    @property
    def status(self) -> str:
        return CONFIRMED if all(c.ok for c in self.checks) else VIOLATION

    def violations(self) -> list[FieldCheck]:
        return [c for c in self.checks if not c.ok]

    def as_dict(self) -> dict:
        d = {"profile_version": PROFILE_VERSION, "kind": self.kind}
        for f in fields(self):
            if f.name != "checks":
                d[f.name] = _jsonable(getattr(self, f.name))
        d["status"] = self.status
        d["checks"] = [c.as_dict() for c in self.checks]
        return d


@dataclass
class ConvergentProfile(_Profile):
    """Everything observed about the convergent before HWM #n, next to the
    matching predictions."""

    kind = "hwm"

    hwm_n: int
    coefficient_index: int
    observed_ncd: int
    predicted_ncd: int
    first_fail: DigitLocation
    fails_as: int
    error_observed: SciDecimal | None
    error_predicted: SciDecimal
    denominator_digits: int
    coefficient_count: int
    total_coefficient_digits: int
    c10_digits_used: int
    next_hwm_length: int | None
    checks: list[FieldCheck] = field(default_factory=list)


def verify_hwm(
    n: int,
    *,
    compute_error: bool = True,
    check_next_hwm: bool = True,
    max_digits: int = DEFAULT_DIGIT_BUDGET,
) -> ConvergentProfile:
    """Full pipeline for HWM #n: predicted denominator, ceiling numerator,
    coefficient extraction, digit comparison, error measurement, and the
    next-level length check, each observation scored against its predictor.

    The coefficients come from cfe._hwm_chain, each level's from the
    level before; a level that leaves the terms before, or follows a level
    out of lowest terms, is expanded from the start, so the chain assumes
    nothing checked here.

    Checking the length of HWM #n itself requires the coefficients of the
    convergent before HWM #(n+1), where that term finally appears; with
    check_next_hwm the n+1 level is computed and its term at this level's
    terminal index is measured; an expansion with no such term reads as
    length None.
    """
    if n < 4:
        raise ValueError("verification starts at HWM #4")

    p_ncd = predict.ncd(n)
    p_err = predict.error_profile(n)
    p_fail, p_fails_as = predict.failing_integer(n)
    p_tail = predict.failure_tail(n)
    p_den_digits = predict.denominator_digit_count(n)

    prefix_pos = cfe.required_prefix_position(n)
    # the tail window ends 3n+56 digits past p_ncd; that covers this level's
    # prefix and the next one's (p_ncd + n - 2) and the error digits with
    # their guard (2n+6 past p_ncd, 15 at n = 4)
    p = p_ncd + len(p_tail) + 64
    value = digits._truth_value(p, max_digits)  # every level's prefix is its leading digits
    (num, den), terms, q_prev, coprime = cfe._hwm_chain(n, p, value)
    k = len(terms)
    total_digits = sum(t.adjusted() + 1 for t in terms)

    diff = _residual(num, [den], p, value)
    found = _first_failure(num, den, p, partial(digits._digit_window, p=p), diff, len(p_tail))
    if found is None:
        raise InsufficientTruthError(
            required=p + 2,
            detail="no mismatch found; expansion window exhausted",
        )
    pos, loc, fails_as, obs_tail = found

    den_digits = den.adjusted() + 1  # den is read off its short form: str() may show an exponent
    parity = "even" if predict.parity_consistent(k) else "odd"
    checks = [
        _check("ncd", p_ncd, pos),
        _check("failing_integer", p_fail, loc.integer),
        _check("fails_as", p_fails_as, fails_as),
        _check("failure_tail", p_tail, obs_tail),
        _check("denominator_digits", p_den_digits, den_digits),
        _check("lowest_terms", True, coprime),
        _check("coefficient_parity", "even", parity),
    ]

    err_obs = None
    if compute_error:
        err_obs = _error(diff, den, p, len(p_err.digits) + 1)
        checks.append(_check("error", p_err, err_obs.round_to(len(p_err.digits))))

    num_digits = str(num)
    p_num_tail = predict.numerator_tail(n)
    if p_num_tail is not None:
        ok = num_digits.endswith(p_num_tail)
        checks.append(FieldCheck("numerator_tail", p_num_tail, ok, ok))
    p_nines = predict.nines_run(n)
    if p_nines is not None:
        run = predict.longest_nines(num_digits)
        checks.append(_check("nines_run", p_nines, len(run[0]) if run else 0))

    next_len = None
    if check_next_hwm:  # level n+1 shares the k terms: skip them
        next_len = coprime and cfe._next_term_digits(
            num, den, q_prev, *cfe._short_pair(n + 1, p, value)
        )
        stable = bool(next_len)
        if not stable:  # out of lowest terms or off the terms: the chain restarts at n+1
            following = cfe._hwm_chain(n + 1, p, value)[1]
            stable = following[:k] == terms
            next_len = following[k].adjusted() + 1 if len(following) > k else None
        checks.append(_check("prefix_stability", True, stable))
        checks.append(_check("hwm_length", predict.hwm_length(n), next_len))

    return ConvergentProfile(
        hwm_n=n,
        coefficient_index=k,
        observed_ncd=pos,
        predicted_ncd=p_ncd,
        first_fail=loc,
        fails_as=fails_as,
        error_observed=err_obs,
        error_predicted=p_err,
        denominator_digits=den_digits,
        coefficient_count=k,
        total_coefficient_digits=total_digits,
        c10_digits_used=prefix_pos + 1,
        next_hwm_length=next_len,
        checks=checks,
    )


def _denominator_blocks(shape: predict.DenominatorShape) -> list[Decimal]:
    """The denominator of the given shape as short-form parts whose sum it
    is: ((A+1)·10^(n+l) − 10^l + B)·10^z for the preamble A, n nines, the
    l-digit penultimate B and z zeroes, as A then n nines is (A+1)·10^n − 1.
    V times each part is a short-by-long multiply; an empty block is 0."""
    l, z = len(shape.penultimate), shape.zeroes_count
    with localcontext(arith.EXACT):
        return [
            (Decimal(shape.preamble or 0) + 1).scaleb(shape.nines_count + l + z),
            Decimal(-1).scaleb(l + z),
            Decimal(shape.penultimate or 0).scaleb(z),
        ]


@dataclass
class ChildProfile(_Profile):
    """Observations for the convergent truncated before a child (2nd
    generation) coefficient, including the denominator block contents the
    shape rule leaves open."""

    kind = "child"

    coefficient_index: int
    follows_hwm: int
    observed_ncd: int
    first_fail: DigitLocation
    fails_as: int
    error_observed: SciDecimal
    error_predicted: SciDecimal
    denominator_shape: predict.DenominatorShape
    shape_lengths_predicted: tuple[int, int, int, int]
    child_length: int | None
    child_length_predicted: int
    checks: list[FieldCheck] = field(default_factory=list)


def _line_term(i: int, line: str) -> Decimal:
    """Term i, given as a coefficient file's line, as an exact Decimal of
    exponent 0. Only its length was read before: it must be digits alone,
    so its value has exactly as many digits as the line has characters."""
    try:
        term = Decimal(line)  # exact in any context
    except InvalidOperation:
        term = None
    if term is None or term.is_signed() or not term.same_quantum(1) or (
        term.adjusted() + 1 != len(line)
    ):
        raise ValueError(f"term {i}: not a decimal coefficient: {line!r}")
    return term


def verify_child(
    coefficient_index: int,
    terms: Sequence[int | Decimal | str],
    *,
    max_digits: int = DEFAULT_DIGIT_BUDGET,
) -> ChildProfile:
    """Verify the convergent truncated immediately before the coefficient at
    coefficient_index, treating it as a child HWM: measure its error and
    failing digit, split its denominator into preamble / nines /
    penultimate / zeroes, and score everything against the predictors. The
    residual takes V·den from those blocks, not from the whole denominator.

    terms are ints, integral Decimals or a coefficient file's lines (digit
    strings); the arithmetic runs on exact Decimals either way. The digits
    the error needs depend only on the prediction, so a need past
    max_digits raises DigitBudgetError before any long arithmetic, and
    before any digit string is converted.
    """
    k = coefficient_index
    if not 1 <= k <= len(terms):
        raise ValueError("coefficient index outside the supplied list")
    with localcontext(arith.EXACT):
        # exponent 0, so str() of a product is its digits; a fractional term
        # raises Inexact instead of rounding
        head = [
            t if isinstance(t, str)
            else t.quantize(1) if isinstance(t, Decimal)
            else arith.to_decimal(t)
            for t in terms[: k + 1]
        ]
    # lines passed with no other reference are freed once converted below
    del terms
    lengths = [len(t) if isinstance(t, str) else t.adjusted() + 1 for t in head]
    maxima = generations.find_hwms(lengths[:k])
    if len(maxima) < 2:
        raise ValueError("no first-generation maximum precedes the index")
    m = generations.hwm_numbers(maxima)[maxima[-1].coefficient_index]
    if m < predict.FIRST_CHILD_HWM:
        raise ValueError(f"children are predicted only after HWM #{predict.FIRST_CHILD_HWM}")

    p_err = predict.child_error_profile(m)
    p_shape = predict.child_denominator_shape(m)
    p_len = predict.child_length(m - 1)
    exp = -p_err.exponent
    need = exp + len(p_err.digits) + 1 + GUARD_DIGITS
    cfe._check_terms(head[:k])
    digits._check_budget(need, max_digits)
    head = [_line_term(i, t) if isinstance(t, str) else t for i, t in enumerate(head)]

    with localcontext(arith.EXACT):
        num, den = cfe._continuant(head[:k][::-1])

    value = digits._truth_value(need, max_digits)
    shape = predict.parse_denominator_shape(str(den))  # exponent 0: its digits

    diff = _residual(num, _denominator_blocks(shape), need, value)
    # an error below 10^-exp is out of _error's reach on these need digits,
    # and no child comes that close: say so rather than ask for more digits
    if diff.copy_abs() < den.scaleb(need - exp, arith.EXACT):
        raise ValueError(
            f"coefficient index {k} is not a child: its convergent agrees with the"
            f" constant to within 1E-{exp}, past position {exp - 1}, where a child"
            f" after HWM #{m} fails"
        )
    err_obs = _error(diff, den, need, len(p_err.digits) + 1)
    found = _first_failure(num, den, need, partial(digits._digit_window, p=need), diff)
    if found is None or found[0] > exp + 32:
        raise InsufficientTruthError(required=exp + 34)
    pos, loc, fails_as, _ = found

    parity = "odd" if predict.parity_consistent(k, generation=2) else "even"
    checks = [
        _check("error", p_err, err_obs.round_to(len(p_err.digits))),
        _check("failing_position", exp - 1, pos),
        _check("coefficient_parity", "odd", parity),
        _check("shape_lengths", list(p_shape), list(shape.lengths())),
        _check("shape_total_length", sum(p_shape), shape.total_length),
    ]

    child_len = None
    if k < len(head):  # the child's own term was given
        child_len = lengths[k]
        checks.append(_check("child_length", p_len, child_len))

    return ChildProfile(
        coefficient_index=k,
        follows_hwm=m,
        observed_ncd=pos,
        first_fail=loc,
        fails_as=fails_as,
        error_observed=err_obs,
        error_predicted=p_err,
        denominator_shape=shape,
        shape_lengths_predicted=p_shape,
        child_length=child_len,
        child_length_predicted=p_len,
        checks=checks,
    )
