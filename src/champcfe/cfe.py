"""Continued-fraction machinery: convergent numerators via the ceiling
construction, coefficient extraction with the parity-corrected Euclidean
algorithm, convergent reconstruction, and the slow digit-truncation method
kept as an efficiency baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import IO, Iterable, Literal, Sequence

from . import arith, predict
from .digits import DigitPrefix, position_of_power

FinalParity = Literal["even", "odd"]


class PrecisionError(Exception):
    """The supplied digit prefix is too short for the requested convergent."""

    def __init__(self, required_position: int, got: int):
        self.required_position = required_position
        self.got = got
        super().__init__(
            f"prefix covers position {got} but position {required_position} is required"
        )


def required_prefix_position(n: int) -> int:
    """Fractional digits needed to pin the numerator for level n: the
    position of 10**(n-4)."""
    if n < 4:
        raise ValueError("convergent construction is defined for n >= 4")
    return position_of_power(n - 4)


def numerator_for_hwm(n: int, prefix: DigitPrefix) -> int:
    """Numerator as the ceiling of denominator * prefix value, computed in
    integer arithmetic on exactly the required number of digits.

    From n = 5 on the denominator is mantissa * 10**(p + 2 - n) with a short
    mantissa, so the ceiling is that of mantissa * v / 10**(n - 2): a small
    multiply and a power of ten of only n - 2 digits.

    For n = 4 the half-scale identity applies: ceil(40.5 * 0.1) = 5, then
    doubled back to 10 over the true denominator predict.denominator(4).
    """
    p = required_prefix_position(n)
    if prefix.last_position < p:
        raise PrecisionError(required_position=p, got=prefix.last_position)
    v = arith.from_digits(prefix.digits[: p + 1])
    if n == 4:
        half = -((-predict.denominator(4) * v) // (2 * 10**p))  # ceil(den*v / (2*10^p))
        return 2 * half
    return -(-int(predict.denominator_sci(n).digits) * v // 10 ** (n - 2))


def hwm_convergent(n: int, prefix: DigitPrefix) -> tuple[int, int]:
    """(numerator, denominator) of the convergent before HWM #n."""
    return numerator_for_hwm(n, prefix), predict.denominator(n)


def cfe_extract(
    numerator: int,
    denominator: int,
    final_index_parity: FinalParity | None = None,
) -> list[int]:
    """Continued-fraction coefficients of numerator/denominator by the
    integer Euclidean algorithm, 0-indexed from the integer part.

    The canonical expansion never ends in 1, so it cannot distinguish a
    true final Y from Y-1 followed by 1. When the caller states the parity
    the final index must have (odd for first-generation HWM convergents,
    even for child convergents) and the canonical form ends on the wrong
    side, the last term Y is split into Y-1, 1.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if numerator < 0:
        raise ValueError("numerator must be non-negative")
    terms: list[int] = []
    a, b = numerator, denominator
    while b:
        q, r = divmod(a, b)
        terms.append(q)
        a, b = b, r
    if final_index_parity is not None:
        want_odd = final_index_parity == "odd"
        last = len(terms) - 1
        if (last % 2 == 1) != want_odd:
            # Y becomes Y-1, 1; a lone unit term [1] becomes [0, 1]
            if terms[-1] < 2 and len(terms) > 1:
                raise ValueError("cannot parity-split a trailing 1")
            terms[-1] -= 1
            terms.append(1)
    return terms


def convergent_from_coefficients(terms: Sequence[int]) -> Fraction:
    """Rebuild the rational from coefficients via the standard recurrence;
    inverse of cfe_extract on canonical lists."""
    if not terms:
        raise ValueError("empty coefficient list")
    p_prev, q_prev = 1, 0
    p, q = terms[0], 1
    for a in terms[1:]:
        if a < 1:
            raise ValueError("coefficients after the first must be >= 1")
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return Fraction(p, q)


@dataclass(frozen=True)
class NaiveCfe:
    """Result of extracting coefficients straight from a digit truncation.
    terms runs through the first term the truncation can no longer pin
    down; trusted_terms counts the reliable prefix."""

    terms: list[int]
    trusted_terms: int


def naive_cfe(prefix: DigitPrefix) -> NaiveCfe:
    """Coefficients of the truncated constant taken as the exact rational
    digits/10**P, the way the reciprocal-of-remainder method would produce
    them.

    Extraction stops once the truncation noise reaches the remainder: the
    expansions of V/10**P and (V+1)/10**P (the two ends of the truncation
    interval) are run in lockstep, and the first term where they disagree
    is emitted as the final, untrustworthy one.
    """
    if prefix.last_position < 1:
        raise ValueError("prefix must contain at least one fractional digit")
    p = prefix.last_position
    v = prefix.as_scaled_integer()
    scale = 10**p
    a_lo, b_lo = v, scale
    a_hi, b_hi = v + 1, scale
    terms: list[int] = []
    while b_lo and b_hi:
        q_lo, r_lo = divmod(a_lo, b_lo)
        q_hi, r_hi = divmod(a_hi, b_hi)
        if q_lo != q_hi:
            terms.append(q_lo)
            return NaiveCfe(terms=terms, trusted_terms=len(terms) - 1)
        terms.append(q_lo)
        a_lo, b_lo = b_lo, r_lo
        a_hi, b_hi = b_hi, r_hi
    # one expansion terminated first: everything emitted so far is shared
    return NaiveCfe(terms=terms, trusted_terms=len(terms))


def write_coefficients(terms: Iterable[int], fp: IO[str]) -> None:
    """One coefficient per line as decimal digits, LF newlines, index 0
    first, no blank lines. This is the on-disk interchange format."""
    for t in terms:
        fp.write(arith.to_digits(t))
        fp.write("\n")


def _coefficient_lines(fp: IO[str]) -> list[str]:
    """The lines of a coefficient file, each checked to be ASCII [0-9]+ with
    no leading zero except in 0 itself."""
    lines = []
    for lineno, line in enumerate(fp):
        s = line.rstrip("\n")
        if not (s.isascii() and s.isdigit()) or (s[0] == "0" and len(s) > 1):
            raise ValueError(f"line {lineno + 1}: not a decimal coefficient: {s!r}")
        lines.append(s)
    if not lines:
        raise ValueError("empty coefficient file")
    return lines


def read_coefficients(fp: IO[str]) -> list[int]:
    return [arith.from_digits(s) for s in _coefficient_lines(fp)]


def coefficient_digit_lengths(fp: IO[str]) -> list[int]:
    """Digit length per coefficient line, without parsing the values."""
    return [len(s) for s in _coefficient_lines(fp)]
