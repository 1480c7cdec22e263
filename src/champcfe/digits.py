"""Digit generation and position arithmetic for the base-10 Champernowne
constant 0.123456789101112...

Positions index the digit string starting at 0 for the '0' left of the
decimal point; the decimal point itself is not counted. So the integer 1
sits at position 1, the integer 12 at position 14, and the '2' of that 12
at position 15.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def digits_up_to(p: int, max_digits: int = DEFAULT_DIGIT_BUDGET) -> DigitPrefix:
    """First p fractional digits of the constant, preceded by the leading '0'.

    Blocks of width 3 and up are built a hundred integers per join (str(h)
    joined with _HUNDRED is 100h .. 100h+99). Only the last piece is trimmed,
    so the final join is the one full-length copy: peak memory about 2*p.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    if p > max_digits:
        raise DigitBudgetError(requested=p, budget=max_digits)
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
