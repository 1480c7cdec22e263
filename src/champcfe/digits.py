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
    d = 1
    while position_of_power(d) <= p:
        d += 1
    offset = p - position_of_power(d - 1)
    q, r = divmod(offset, d)
    return DigitLocation(integer=10 ** (d - 1) + q, digit_ordinal=r + 1)


def _check_budget(p: int, max_digits: int) -> None:
    if p < 0:
        raise ValueError("p must be >= 0")
    if p > max_digits:
        raise DigitBudgetError(requested=p, budget=max_digits)


def digits_up_to(p: int, max_digits: int = DEFAULT_DIGIT_BUDGET) -> DigitPrefix:
    """First p fractional digits of the constant, preceded by the leading '0'.

    Blocks of width 3 and up are built a hundred integers per join (str(h)
    joined with _HUNDRED is 100h .. 100h+99). Only the last piece is trimmed,
    so the final join is the one full-length copy: peak memory about 2*p.
    """
    _check_budget(p, max_digits)
    parts = ["0"]
    total = 1
    n, width = 1, 1
    while total <= p:
        # integers of this width still needed, to the block end
        hi = min(10**width, n + (p - total) // width + 1)
        mid = hi - hi % 100 if n >= 100 else n  # end of the whole hundreds
        parts += map(str.join, map(str, range(n // 100, mid // 100)), repeat(_HUNDRED))
        parts += map(str, range(mid, hi))
        total += (hi - n) * width
        n, width = hi, width + 1
    if total > p + 1:  # the last integer overshoots p
        parts[-1] = parts[-1][: p + 1 - total]
    return DigitPrefix("".join(parts))


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
    if p == 0:
        return Decimal(0)
    last = locate_position(p)
    width = len(str(last.integer))
    v = Decimal(0)
    with localcontext(arith.EXACT):
        for d in range(1, width + 1):
            b = last.integer if d == width else 10**d - 1
            n, w = b - 10 ** (d - 1) + 1, 10**d - 1
            k1, shift = b * w + w + 1, d * n
            # (K1 - K2)*10**shift is short: only the subtraction of K1 writes
            # every digit; no name holds that dividend past the division
            v = v.scaleb(shift) + arith._exact_quotient(
                (k1 - n * w) * Decimal(1).scaleb(shift) - k1, w * w
            )
        # an exact floor: to_integral_value signals neither Inexact nor Rounded
        return v.scaleb(last.digit_ordinal - width).to_integral_value(ROUND_FLOOR)


def _digit_window(a: int, p: int) -> str:
    """digits_up_to(p).digits[a:], the digits of positions a..p, from the
    integers that cover them: no digit before position a is made."""
    if a > p:
        return ""
    if a == 0:
        return "0" + _digit_window(1, p)
    first, last = locate_position(a), locate_position(p)
    s = "".join(map(str, range(first.integer, last.integer + 1)))
    return s[first.digit_ordinal - 1 : len(s) - len(str(last.integer)) + last.digit_ordinal]
