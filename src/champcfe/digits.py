"""Digit generation and position arithmetic for the base-10 Champernowne
constant 0.123456789101112...

Positions index the digit string starting at 0 for the '0' left of the
decimal point; the decimal point itself is not counted. So the integer 1
sits at position 1, the integer 12 at position 14, and the '2' of that 12
at position 15.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_FLOOR, Decimal, localcontext
from itertools import repeat

from . import arith

DEFAULT_DIGIT_BUDGET = 10**8
_HUNDRED = [""] + [f"{k:02d}" for k in range(100)]  # h.join(_HUNDRED) is h00 h01 ... h99


class DigitBudgetError(Exception):
    """Requested digit count exceeds the configured budget."""

    def __init__(self, requested: int, budget: int):
        self.requested = requested
        self.budget = budget
        super().__init__(
            f"requested {requested} digits exceeds the budget of {budget} "
            f"(raise max_digits to override)"
        )


@dataclass(frozen=True)
class DigitLocation:
    """The integer covering a position and the 1-based digit within it."""

    integer: int
    digit_ordinal: int


@dataclass(frozen=True)
class DigitPrefix:
    """The digit string '0' + d1 d2 ... dP of the constant up to position P."""

    digits: str

    @property
    def last_position(self) -> int:
        return len(self.digits) - 1

    def as_scaled_integer(self) -> int:
        """The digits read as an integer V, so the value is V / 10**last_position."""
        return arith.from_digits(self.digits)


def position_of_power(m: int) -> int:
    """Position of the first digit of 10**m: 1 + sum of 9*k*10**(k-1) for
    k <= m, in closed form 1 + ((9m - 1)*10**m + 1) / 9."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return ((9 * m - 1) * 10**m + 10) // 9


def position_of_integer(n: int) -> int:
    """Position of the first digit of the integer n >= 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    d = len(str(n))
    return position_of_power(d - 1) + d * (n - 10 ** (d - 1))


def locate_position(p: int) -> DigitLocation:
    """Map a position p >= 1 to (integer, digit ordinal) by block arithmetic.

    The m-digit integers occupy a block of 9*m*10**(m-1) digits, so the
    covering integer falls out of a divmod once the block is known. Position
    0 is the leading '0', which no generating integer produces.
    """
    if p < 1:
        raise ValueError("position 0 is the leading '0'; no integer covers it")
    for _, n, _, skip, _ in _runs(p, p):
        return DigitLocation(integer=n, digit_ordinal=skip + 1)


def _runs(a: int, p: int):
    """(width, n, hi, digits of n before a, digits of hi - 1 past p) for each
    width's run of the integers n..hi-1 that cover positions a..p, 1 <= a <= p
    (none when p = 0). It calls no public name, so a traced digits_up_to
    stays one span."""
    width, start = 1, 1  # start: the position of 10**(width - 1)
    while start <= p:
        end = start + 9 * width * 10 ** (width - 1)
        if end > a:
            q, skip = divmod(max(a - start, 0), width)
            r, last = divmod(min(p, end - 1) - start, width)
            base = 10 ** (width - 1)
            yield width, base + q, base + r + 1, skip, width - 1 - last
        start, width = end, width + 1


def _check_budget(p: int, max_digits: int) -> None:
    if p < 0:
        raise ValueError("p must be >= 0")
    if p > max_digits:
        raise DigitBudgetError(requested=p, budget=max_digits)


def digits_up_to(p: int, max_digits: int = DEFAULT_DIGIT_BUDGET) -> DigitPrefix:
    """First p fractional digits of the constant, preceded by the leading '0'."""
    _check_budget(p, max_digits)
    return DigitPrefix(_digit_window(0, p))


def _truth_value(p: int, max_digits: int = DEFAULT_DIGIT_BUDGET) -> Decimal:
    """Decimal(digits_up_to(p).digits), the digits through position p read as
    an integer V, built in closed form with no digit string: an exact
    Decimal with exponent 0, which holds 8 bytes per 19 digits.

    The d-digit integers a..b, N = b - a + 1 of them and B = 10**d,
    concatenate to S = sum of (b - i)*B**i over i < N, an arithmetico-
    geometric series: S = ((K1 - K2)*10**(d*N) - K1) / (B - 1)**2 with
    K1 = b*(B - 1) + B and K2 = N*(B - 1). Up to d = 9 the divisor is one
    libmpdec word, so each block is one subtraction and one short exact
    division. The last block runs through the integer covering p, whose
    digits past p a floor cut drops.
    """
    _check_budget(p, max_digits)
    v, cut = Decimal(0), 0  # p == 0 has no run
    with localcontext(arith.EXACT):
        for d, a, hi, _, cut in _runs(1, p):
            b, n, w = hi - 1, hi - a, 10**d - 1
            k1, shift = b * w + w + 1, d * n
            # (K1 - K2)*10**shift is short: only the subtraction of K1 writes
            # every digit; no name holds that dividend past the division
            v = v.scaleb(shift) + arith._exact_quotient(
                (k1 - n * w) * Decimal(1).scaleb(shift) - k1, w * w
            )
        # an exact floor: to_integral_value signals neither Inexact nor Rounded
        return v.scaleb(-cut).to_integral_value(ROUND_FLOOR)


def _digit_window(a: int, p: int) -> str:
    """digits_up_to(p).digits[a:], the digits of positions a..p, made from
    the integers that cover them alone. After a head run to the first whole
    hundred, a hundred integers go in one join (str(h) joined with _HUNDRED
    is 100h .. 100h+99). Only the first and last pieces are cut, so the
    final join is the one full-length copy: peak memory about 2*(p - a)."""
    if a > p:
        return ""
    parts = ["0"] if a == 0 else []
    for width, n, hi, skip, cut in _runs(max(a, 1), p):
        head = min(hi, -(-n // 100) * 100)  # the whole run below 100
        mid = max(head, hi - hi % 100)  # end of the whole hundreds
        parts += map(str, range(n, head))
        parts += map(str.join, map(str, range(head // 100, mid // 100)), repeat(_HUNDRED))
        parts += map(str, range(mid, hi))
        # only the last run cuts, and only the first skips, at parts[0] as a > 0
        # then; a one-piece run does both, so the cut goes first
        parts[-1] = parts[-1][: len(parts[-1]) - cut]
        parts[0] = parts[0][skip:]
    return "".join(parts)
