"""Closed-form predictors for the high-water-mark (HWM) convergents of the
base-10 Champernowne constant.

A HWM is a continued-fraction coefficient with more decimal digits than
every earlier coefficient (OEIS A143533 numbers them; A143534 has their
lengths). Truncating the expansion immediately before HWM #N yields a
convergent whose count of correct digits, error, denominator, and the
length of the HWM itself all follow exact formulas in N. The functions
here evaluate those formulas; the verifier checks them against digits
actually computed.

Every quantity is exact: errors and denominators are carried as digit
strings with exponents (SciDecimal), never as binary floats.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import arith
from .digits import position_of_power

FIRST_CHILD_HWM = 6  # children are predicted only after this maximum


@dataclass(frozen=True)
class SciDecimal:
    """Exact scientific-notation value: sign * 0.digits scaled to one leading
    digit before the point, times 10**exponent. digits[0] is never '0'."""

    sign: int  # +1 or -1
    digits: str
    exponent: int

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if not (self.digits.isascii() and self.digits.isdigit()) or self.digits[0] == "0":
            raise ValueError("mantissa must be digits with a nonzero lead")

    def round_to(self, ndigits: int) -> "SciDecimal":
        """Half-up rounding of the mantissa to ndigits digits."""
        if ndigits < 1:
            raise ValueError("ndigits must be >= 1")
        if ndigits >= len(self.digits):
            return self
        head = int(self.digits[:ndigits])
        if self.digits[ndigits] >= "5":
            head += 1
        s = str(head)
        exponent = self.exponent
        if len(s) > ndigits:  # 99..9 rounded up
            s = s[:ndigits]
            exponent += 1
        return SciDecimal(self.sign, s, exponent)

    def __str__(self) -> str:
        mant = self.digits[0] + ("." + self.digits[1:] if len(self.digits) > 1 else "")
        return ("-" if self.sign < 0 else "") + mant + f"E{self.exponent:+d}"


@dataclass(frozen=True)
class DenominatorShape:
    """Structure of an observed child-convergent denominator: a preamble, a
    long run of nines, a penultimate block one digit shorter than the
    preamble, and a trailing run of zeroes."""

    preamble: str
    nines_count: int
    penultimate: str
    zeroes_count: int

    @property
    def total_length(self) -> int:
        return sum(self.lengths())

    def realize(self) -> int:
        """The denominator as an integer."""
        return arith.from_digits(
            self.preamble
            + "9" * self.nines_count
            + self.penultimate
            + "0" * self.zeroes_count
        )

    def lengths(self) -> tuple[int, int, int, int]:
        return (
            len(self.preamble),
            self.nines_count,
            len(self.penultimate),
            self.zeroes_count,
        )


def _require(n: int, minimum: int, what: str) -> None:
    if n < minimum:
        raise ValueError(f"{what} is defined for n >= {minimum}, got {n}")


def ncd(n: int) -> int:
    """Number of correct digits of the convergent before HWM #n, counting
    the leading '0': position of 10**(n-3) minus n plus 2."""
    _require(n, 3, "ncd")
    return position_of_power(n - 3) - n + 2


def hwm_length(n: int) -> int:
    """Decimal digit count of the HWM #n coefficient itself."""
    _require(n, 4, "hwm_length")
    return ncd(n) - 2 * ncd(n - 1) - 3 * (n - 2) + 4


def denominator_sci(n: int) -> SciDecimal:
    """Denominator of the convergent before HWM #n in scientific form:
    4.[nines]0...05 E+(ncd(n-1) + 2(n-2) - 3), with n-4 nines and n-3 zeroes."""
    _require(n, 4, "denominator_sci")
    if n == 4:  # half-scale case: the form gives 4.05E+1 = 40.5, half the true value
        return SciDecimal(+1, "81", 1)
    mantissa = "4" + "9" * (n - 4) + "0" * (n - 3) + "5"
    return SciDecimal(+1, mantissa, ncd(n - 1) + 2 * (n - 2) - 3)


def denominator(n: int) -> int:
    """Exact integer denominator of the convergent before HWM #n, n >= 4."""
    sci = denominator_sci(n)
    shift = sci.exponent - (len(sci.digits) - 1)
    return int(sci.digits) * arith.pow10(shift)


def denominator_digit_count(n: int) -> int:
    """Digit count of the convergent denominator; the n=4 case (81) also
    satisfies the exponent+1 form because ncd(3) = 0."""
    _require(n, 4, "denominator_digit_count")
    return ncd(n - 1) + 2 * (n - 2) - 2


def error_profile(n: int) -> SciDecimal:
    """Error (convergent minus constant) of the convergent before HWM #n:
    +9.0...01 E-(ncd(n)+n-2) with n-5 zeroes; n = 4 is approximately 1.0E-9."""
    _require(n, 4, "error_profile")
    if n == 4:
        return SciDecimal(+1, "10", -9)
    return SciDecimal(+1, "9" + "0" * (n - 5) + "1", -(ncd(n) + n - 2))


def failing_integer(n: int) -> tuple[int, int]:
    """The integer whose digits the convergent first gets wrong and the
    integer it reads as instead: (10**(n-3) - 2, 10**(n-3) - 1)."""
    _require(n, 4, "failing_integer")
    return 10 ** (n - 3) - 2, 10 ** (n - 3) - 1


def failure_tail(n: int) -> str:
    """Digits the convergent produces from the first wrong position on:
    a 9, then 2(n-4)+1 zeroes, a 1, then n-4 zeroes, then a 2."""
    _require(n, 4, "failure_tail")
    return "9" + "0" * (2 * (n - 4) + 1) + "1" + "0" * (n - 4) + "2"


def child_length(n: int) -> int:
    """Digit count of the child (2nd-generation) HWM spawned by HWM #n; the
    child itself appears between HWM #(n+1) and HWM #(n+2)."""
    _require(n, FIRST_CHILD_HWM - 1, "child_length")
    return hwm_length(n) - 10 * (n - 5) - 26


def child_error_profile(n: int) -> SciDecimal:
    """Error of the convergent before the child that appears after HWM #n:
    -8.9...92 with n-5 nines; exponent from the HWM #n error exponent."""
    _require(n, FIRST_CHILD_HWM, "child_error_profile")
    hwm_exp = error_profile(n).exponent  # negative
    exp = -2 * hwm_exp - ncd(n - 1) - n + 3
    return SciDecimal(-1, "8" + "9" * (n - 5) + "2", -exp)


def child_denominator_shape(n: int) -> tuple[int, int, int, int]:
    """Predicted block lengths (preamble, nines, penultimate, zeroes) of the
    child-convergent denominator after HWM #n; the rule leaves the preamble
    and penultimate contents open."""
    _require(n, FIRST_CHILD_HWM, "child_denominator_shape")
    pre_len = 7 * (n - 2) - 9
    nines = ncd(n) - ncd(n - 1) - 7 * (n - 2) + 10
    return pre_len, nines, pre_len - 1, ncd(n - 2) - 1


# Longest consecutive-nines runs in the odd-level numerators. The level-9
# figure circulates in print as 2869, a transposition of the 2690 the
# verified numerator actually carries; the level-11 figures (35987 plus a
# separate 165-run) reproduce exactly, pinning the typo.
_NINES_RUNS = {5: 5, 7: 173, 9: 2690, 11: 35987}


def numerator_tail(n: int) -> str | None:
    """Trailing digits of the numerator before HWM #n: '4', n-5 zeroes, '9'
    from n = 6 on; None below that."""
    _require(n, 4, "numerator_tail")
    return "4" + "0" * (n - 5) + "9" if n >= 6 else None


def nines_run(n: int) -> int | None:
    """Published longest consecutive-nines run of the numerator before
    HWM #n; None where no count is published."""
    _require(n, 4, "nines_run")
    return _NINES_RUNS.get(n)


_NINES = re.compile("9+")


def longest_nines(s: str) -> re.Match | None:
    """The first of the longest runs of nines in s, or None."""
    # galloping: the first hit of one nine more than the best run, searched
    # from the run's end, starts the first longer run (a nine before the
    # hit would make an earlier hit), so no shorter run is matched
    best = None
    i = s.find("9")
    while i >= 0:
        best = _NINES.match(s, i)
        i = s.find("9" * (best.end() - best.start() + 1), best.end())
    return best


def parity_consistent(coefficient_index: int, generation: int = 1) -> bool:
    """Parity rule for large-coefficient indices: first-generation HWMs sit
    at even indices (their convergents end on an odd index, above the
    constant), children at odd indices (convergents below the constant)."""
    if generation == 1:
        return coefficient_index % 2 == 0
    if generation == 2:
        return coefficient_index % 2 == 1
    raise ValueError("parity rule applies to generations 1 and 2")


def parse_denominator_shape(digit_string: str) -> DenominatorShape:
    """Split an observed denominator into preamble / nines / penultimate /
    zeroes by scanning the trailing zero run and the longest nine run."""
    # ASCII digits only, checked at C speed: str.isdigit() also takes other
    # scripts' digits, and walks a long string at Unicode speed
    stray = not digit_string.isascii() or digit_string.encode().translate(None, b"0123456789")
    if not digit_string or stray:
        raise ValueError("denominator must be a nonempty digit string")
    stripped = digit_string.rstrip("0")
    best = longest_nines(stripped)
    if best is None:
        raise ValueError("no nine run found; not a child-convergent denominator")
    return DenominatorShape(
        preamble=stripped[: best.start()],
        nines_count=best.end() - best.start(),
        penultimate=stripped[best.end() :],
        zeroes_count=len(digit_string) - len(stripped),
    )
