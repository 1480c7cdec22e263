"""Continued-fraction machinery: convergent numerators via the ceiling
construction, coefficient extraction by the Euclidean algorithm, the
odd-index expansion of each HWM convergent, convergent reconstruction, and
the slow digit-truncation method kept as an efficiency baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import IO, Iterable, Sequence

from . import arith, predict
from .digits import DigitPrefix, position_of_power


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
    """Numerator as the ceiling of denominator * prefix value, on exactly the
    required digits. From n = 5 on the denominator is a short mantissa times
    10**(p + 2 - n), so this is the ceiling of mantissa * v / 10**(n - 2).
    For n = 4 the half-scale identity applies: ceil(40.5 * 0.1) = 5, then
    doubled back to 10 over the true denominator predict.denominator(4)."""
    return _numerator(n, prefix, arith.from_digits)


def _numerator(n: int, prefix: DigitPrefix, parse):
    """numerator_for_hwm on the value parse() reads: an int, or an exact Decimal."""
    p = required_prefix_position(n)
    if prefix.last_position < p:
        raise PrecisionError(required_position=p, got=prefix.last_position)
    v = parse(prefix.digits[: p + 1])
    if n == 4:
        q, r = divmod(predict.denominator(4) * v, 2 * 10**p)  # den*v / (2*10^p)
        return 2 * (q + (r > 0))
    q, r = divmod(int(predict.denominator_sci(n).digits) * v, 10 ** (n - 2))
    return q + (r > 0)  # the ceiling for an int and a Decimal alike, as v >= 0


def cfe_extract(numerator: int, denominator: int) -> list[int]:
    """Canonical continued-fraction coefficients of numerator/denominator by
    the integer Euclidean algorithm, 0-indexed from the integer part."""
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
    return terms


def hwm_expansion(n: int, prefix: DigitPrefix) -> tuple[int, int, list[int]]:
    """(numerator, denominator, coefficients) of the convergent before HWM #n.

    The convergent lies above the constant, so its expansion ends on an odd
    index; where the canonical one ends on an even index, its last term Y
    is written as the equal pair Y-1, 1 (the two expansions of a rational).
    """
    num, den = numerator_for_hwm(n, prefix), predict.denominator(n)
    terms = cfe_extract(num, den)
    if len(terms) % 2:
        terms[-1:] = [terms[-1] - 1, 1]
    return num, den, terms


def convergent_from_coefficients(terms: Sequence[int]) -> Fraction:
    """Rebuild the rational from coefficients as K(terms) / K(terms[1:]);
    inverse of cfe_extract on canonical lists."""
    if not terms:
        raise ValueError("empty coefficient list")
    return Fraction(*(_continuant(s)[0] for s in (terms, terms[1:])))


def _continuant(seq: Sequence[int]) -> tuple[int, int]:
    """(K(seq), K(seq[:-1])) for the continuant K(x1..xm) = xm*K(x1..xm-1)
    + K(x1..xm-2), K() = 1, with 0 in second place for an empty seq (Knuth,
    TAOCP 4.5.3). a0..ak converges to K(a0..ak) / K(a1..ak), in lowest terms."""
    if any(a < 1 for a in seq[1:]):
        raise ValueError("coefficients after the first must be >= 1")
    k, k_prev = 1, 0
    for a in seq:
        k, k_prev = a * k + k_prev, k
    return k, k_prev


def _short_pair(n: int, prefix: DigitPrefix) -> tuple[Decimal, Decimal]:
    """Level n's numerator and short-form denominator as exact Decimals."""
    sci = predict.denominator_sci(n)
    with localcontext(arith.EXACT):
        den = Decimal(sci.digits).scaleb(sci.exponent - (len(sci.digits) - 1))
        return _numerator(n, prefix, Decimal), den


def _next_term_digits(
    p: Decimal, q: Decimal, q_prev: Decimal, a: Decimal, b: Decimal
) -> int | None:
    """Digits of the term at index k in hwm_expansion's expansion of a/b > 0,
    or None unless that expansion begins with terms: a list of even length k
    whose value is p/q in lowest terms and whose convergent before p/q has
    denominator q_prev, that is (q, q_prev) = _continuant(terms[1:]).

    After k Euclid steps on (a, b) the remainders are y = p*b - q*a and x,
    and b = q*x + q_prev*y for every integer pair, because the matrix of the
    k terms has determinant 1 when k is even (Knuth, TAOCP 4.5.3). So x is
    the exact quotient (b - q_prev*y) / q; a nonzero remainder means the
    cofactors do not belong together and raises ArithmeticError. The
    expansion begins with terms exactly when x > y > 0, and the term at k
    then has j + (x > y*10**j) digits, j = digits(x) - digits(y): the
    odd-index split writes x/y = 10**j as 10**j - 1, 1, and any other
    integer x/y is at least 10**(j-1) + 1.

    Pass q and b in short form, as _short_pair gives them: p*b and q*a are
    then short multiplies however long p and a are, and q_prev*y, of two
    level-n sized factors, is the only general product.
    """
    with localcontext(arith.EXACT):
        y = p * b - q * a
        # divmod, not /: under EXACT an inexact / fails with MemoryError, not Inexact
        x, r = divmod(b - q_prev * y, q)
        if r:
            raise ArithmeticError("q_prev and q are not consecutive denominators of p/q")
        if not x > y > 0:
            return None
        j = x.adjusted() - y.adjusted()
        return j + (x > y.scaleb(j))


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
