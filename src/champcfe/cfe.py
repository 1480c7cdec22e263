"""Continued-fraction machinery: convergent numerators via the ceiling
construction, coefficient extraction by the Euclidean algorithm, the
odd-index expansion of each HWM convergent, the level chain that builds
each level's expansion from the one before, convergent reconstruction, and
the slow digit-truncation method kept as an efficiency baseline.
"""

from __future__ import annotations

import bisect
import operator
from dataclasses import dataclass
from decimal import ROUND_CEILING, ROUND_FLOOR, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate
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
    required digits, at half scale for n = 4: _short_pair's numerator."""
    pair = _short_pair(n, prefix.last_position, Decimal(prefix.digits))
    return arith.from_digits(str(pair[0]))


def cfe_extract(numerator: int, denominator: int) -> list[int]:
    """Canonical continued-fraction coefficients of numerator/denominator by
    the integer Euclidean algorithm, 0-indexed from the integer part."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if numerator < 0:
        raise ValueError("numerator must be non-negative")
    a, b = numerator, denominator
    terms = []
    while b:
        q, r = divmod(a, b)
        terms.append(q)
        a, b = b, r
    return terms


_LEHMER_DIGITS = 38  # leading digits of a read per batch: two libmpdec words


def _lehmer_quotients(a: Decimal, b: Decimal) -> list[Decimal]:
    """cfe_extract(a, b) for integral Decimals a >= 0 < b under arith.EXACT,
    in batches (Lehmer 1938; Knuth, TAOCP 4.5.2, Algorithm L).

    A batch reads the _LEHMER_DIGITS leading digits of a, and b at the same
    scale, exactly as Python ints x and y, and runs Euclid on those while
    the quotient is certain: the same for (x+A)/(y+C) and (x+B)/(y+D), the
    ends of the interval that a/b lies in, with cofactors (A, B; C, D)
    that give the remainders as A*a + B*b and C*a + D*b. Those four short
    multiplies then stand for every step of the batch. Where no quotient
    is certain, as at a long quotient or a b far shorter than a, and
    below _LEHMER_DIGITS digits, one arith._divmod takes the step: a long
    quotient by a b in short form, such as the HWM term by _remainder_pair's
    y, divides by b's significant digits only.
    """
    terms: list[Decimal] = []
    while b:
        shift = a.adjusted() + 1 - _LEHMER_DIGITS
        batch = []
        if shift > 0:
            # exact floors: to_integral_value signals neither Inexact nor Rounded
            x, y = (int(v.scaleb(-shift).to_integral_value(ROUND_FLOOR)) for v in (a, b))
            A, B, C, D = 1, 0, 0, 1
            while y + C and y + D:
                q = (x + A) // (y + C)
                if q != (x + B) // (y + D):
                    break
                batch.append(q)
                A, B, C, D = C, D, A - q * C, B - q * D
                x, y = y, x - q * y
        if batch:
            terms += map(Decimal, batch)
            a, b = A * a + B * b, C * a + D * b
            if not a > b >= 0:  # a wrong batch would leave Euclid looping forever
                raise ArithmeticError("a Lehmer batch left the remainder sequence")
        else:
            q, r = arith._divmod(a, b)
            terms.append(q)
            a, b = b, r
    return terms


def hwm_expansion(n: int, prefix: DigitPrefix) -> tuple[int, int, list[int]]:
    """(numerator, denominator, coefficients) of the convergent before HWM #n.

    The convergent lies above the constant, so its expansion ends on an odd
    index; where the canonical one ends on an even index, its last term Y
    is written as the equal pair Y-1, 1 (the two expansions of a rational).
    The numerator and terms are _hwm_chain's, made ints only at the return,
    by from_digits of their digit strings: int(Decimal) is quadratic.
    """
    (num, _), terms, _, _ = _hwm_chain(n, prefix.last_position, Decimal(prefix.digits))
    terms = [arith.from_digits(str(t)) for t in terms]
    return arith.from_digits(str(num)), predict.denominator(n), terms


def _hwm_chain(
    n: int, p: int, value: Decimal
) -> tuple[tuple[Decimal, Decimal], list[Decimal], Decimal, bool]:
    """(pair, terms, q_prev, coprime) for level n, on the digits through
    position p read as the integer value: its _short_pair, hwm_expansion's
    terms of that pair, the denominator of the convergent before it, and
    whether the pair is in lowest terms. The terms and the numerator are
    exact Decimals with exponent 0, so str() of each is its digit string.

    Level 4 runs Euclid from the start. Each later level jumps past the
    terms of the one before by _remainder_pair and runs Euclid only on the
    rest, so no level walks the shared terms again. A level whose pair
    leaves the terms before, or follows a pair not in lowest terms (whose
    cofactors then are not those of its pair), runs Euclid from the start.
    """
    top = _short_pair(n, p, value)  # level n first: a short prefix names its position
    terms: list[Decimal] = []
    num = den = q_prev = Decimal(0)
    coprime = False
    for m in range(4, n + 1):
        a, b = top if m == n else _short_pair(m, p, value)
        pair = _remainder_pair(num, den, q_prev, a, b) if coprime else None
        if pair is None:
            terms, pair, den = [], (a, b), Decimal(0)
        tail, q_prev, coprime = _extend(*pair, den, b)
        terms += tail
        num, den = a, b
    return top, terms, q_prev, coprime


def convergent_from_coefficients(terms: Sequence[int]) -> Fraction:
    """Rebuild the rational from coefficients as K(terms) / K(terms[1:]);
    inverse of cfe_extract on canonical lists."""
    if not terms:
        raise ValueError("empty coefficient list")
    _check_terms(terms)
    return Fraction(*_continuant(terms[::-1]))


# a run of terms below _WORD is held in a 2x2 matrix of Python ints while
# its entries stay below _WORD: each entry is then one libmpdec word
_WORD = 10**18
_LEAF = 100_000  # _continuant splits terms whose digits total at least this


def _check_terms(seq: Sequence) -> None:
    # a term may be a coefficient file's line, where only "0" is below 1
    if any(a == "0" if isinstance(a, str) else a < 1 for a in seq[1:]):
        raise ValueError("coefficients after the first must be >= 1")


def _continuant(seq: Sequence) -> tuple:
    """(K(seq), K(seq[:-1])) for the continuant K(x1..xm) = xm*K(x1..xm-1)
    + K(x1..xm-2), K() = 1, with 0 in second place for an empty seq (Knuth,
    TAOCP 4.5.3). With every term after a0 >= 1, a0..ak converges to
    K(a0..ak) / K(a1..ak) in lowest terms, and as K(s) = K(reversed s), one
    pass over the terms reversed gives both. No term is checked: terms from
    outside the program go through _check_terms first.

    seq holds ints or integral Decimals (then under arith.EXACT), and so
    does the result, Decimals with exponent 0. It is the first row of the
    product of the term matrices [[a, 1], [1, 0]], from _split: one
    recursion that returns one row or both. Decimal products go through
    arith._product."""
    zero = type(seq[0])(0) if seq else 0
    if isinstance(zero, Decimal):
        sizes, mul = [t.adjusted() + 1 for t in seq], arith._product
    else:  # about 0.3 digits a bit
        sizes, mul = [t.bit_length() * 3 // 10 + 1 for t in seq], operator.mul
    cum = list(accumulate(sizes, initial=0))
    return _split(seq, cum, zero, mul, 0, len(seq), 1)[0]


# The split recurses at module level, as arith's conversions do: a nested
# function that calls itself would keep the terms alive through its closure.


def _split(seq, cum, zero, mul, lo, hi, rows) -> tuple:
    """The top row, or with rows=2 both rows, of the product of the term
    matrices of s = seq[lo:hi]: ((K(s), K(s[:-1])), (K(s[1:]), K(s[1:-1]))),
    cum the running digit totals. Under _LEAF digits, one _batched_pass per
    row, over s and s[1:]. Above, the product splits at the term h where
    the running total crosses half the total: the rows before h times h's
    matrix, times the full matrix after h. So a term longer than all the
    others together meets the one row _continuant asks for, not every run
    after it."""
    if lo == hi:
        return ((zero + 1, zero), (zero, zero + 1))[:rows]
    if cum[hi] - cum[lo] < _LEAF:
        return tuple(_batched_pass(seq[i:hi], zero, mul) for i in range(lo, lo + rows))
    h = bisect.bisect_right(cum, (cum[lo] + cum[hi]) // 2, lo + 1, hi + 1) - 1
    left = [(mul(a, seq[h]) + b, a) for a, b in _split(seq, cum, zero, mul, lo, h, rows)]
    (r00, r01), (r10, r11) = _split(seq, cum, zero, mul, h + 1, hi, 2)
    return tuple((mul(a, r00) + mul(b, r10), mul(a, r01) + mul(b, r11)) for a, b in left)


def _batched_pass(seq: Sequence, zero, mul) -> tuple:
    """_continuant of seq in one pass, of zero's type. A run of terms below
    _WORD goes into the matrix m = [[m00, m01], [m10, m11]] of Python ints,
    applied to (k, k_prev) by four one-word multiplies before a longer
    term, before an entry would reach _WORD, and at the end."""
    k, k_prev = zero + 1, zero
    m00, m01, m10, m11 = 1, 0, 0, 1
    for a in seq:
        if a < _WORD:
            a = int(a)
            if a * m00 + m10 < _WORD:
                m00, m01, m10, m11 = a * m00 + m10, a * m01 + m11, m00, m01
                continue
        if m10 or m01:  # not the identity: flush the run before this term
            k, k_prev = m00 * k + m01 * k_prev, m10 * k + m11 * k_prev
        if a < _WORD:  # starts the next run
            m00, m01, m10, m11 = a, 1, 1, 0
        else:
            m00, m01, m10, m11 = 1, 0, 0, 1
            k, k_prev = mul(a, k) + k_prev, k
    if m10 or m01:
        k, k_prev = m00 * k + m01 * k_prev, m10 * k + m11 * k_prev
    return k, k_prev


def _short_pair(n: int, p: int, value: Decimal) -> tuple[Decimal, Decimal]:
    """Level n's numerator and short-form denominator as exact Decimals, where
    value is the digits through position p read as an integer, as
    digits._truth_value gives it: the required digits are its leading ones,
    so every level reads the one value.

    The numerator is the ceiling of den * v / 10**need, v the required digits
    as an integer: one short-by-long multiply, the shift on the short den so
    no long operand is copied. At n = 4 the half-scale identity applies: the
    ceiling is taken at half scale and doubled, 2 * ceil(81 * 0.1 / 2) = 10."""
    need = required_prefix_position(n)
    if p < need:
        raise PrecisionError(required_position=need, got=p)
    sci = predict.denominator_sci(n)
    with localcontext(arith.EXACT):
        den = Decimal(sci.digits).scaleb(sci.exponent - (len(sci.digits) - 1))
        # exact floor and ceilings: to_integral_value signals neither Inexact nor Rounded
        v = value.scaleb(need - p).to_integral_value(ROUND_FLOOR)
        x = den.scaleb(-need) * v
        if n == 4:
            return 2 * (x / 2).to_integral_value(ROUND_CEILING), den
        return x.to_integral_value(ROUND_CEILING), den


def _remainder_pair(
    p: Decimal, q: Decimal, q_prev: Decimal, a: Decimal, b: Decimal
) -> tuple[Decimal, Decimal] | None:
    """The remainders (x, y) that Euclid on a/b > 0 reaches after k steps, or
    None unless hwm_expansion's expansion of a/b begins with terms: a list of
    even length k whose value is p/q in lowest terms and whose convergent
    before p/q has denominator q_prev, that is (q, q_prev) =
    _continuant(terms[1:]).

    The remainders are y = p*b - q*a and x, and b = q*x + q_prev*y for every
    integer pair, because the matrix of the k terms has determinant 1 when k
    is even (Knuth, TAOCP 4.5.3). So x is the exact quotient
    (b - q_prev*y) / q; a nonzero remainder means the cofactors do not
    belong together and raises ArithmeticError. The expansion begins with
    terms exactly when x > y > 0, and its term at k is then floor(x/y).

    Pass q and b in short form, as _short_pair gives them: p*b and q*a are
    then short multiplies however long p and a are, and q_prev*y, of two
    level-n sized factors, is the only general product.
    """
    with localcontext(arith.EXACT):
        y = p * b - q * a
        x = arith._exact_quotient(b - q_prev * y, q)
    return (x, y) if x > y > 0 else None


def _next_term_digits(
    p: Decimal, q: Decimal, q_prev: Decimal, a: Decimal, b: Decimal
) -> int | None:
    """Digits of the term at index k in hwm_expansion's expansion of a/b, read
    off _remainder_pair's (x, y) without dividing, or None where that is None.
    The term has j + (x > y*10**j) digits, j = digits(x) - digits(y): the
    odd-index split writes x/y = 10**j as 10**j - 1, 1, and any other
    integer x/y is at least 10**(j-1) + 1.
    """
    pair = _remainder_pair(p, q, q_prev, a, b)
    if pair is None:
        return None
    x, y = pair
    j = x.adjusted() - y.adjusted()
    with localcontext(arith.EXACT):
        return j + (x > y.scaleb(j))


def _extend(
    x: Decimal, y: Decimal, q: Decimal, b: Decimal
) -> tuple[list[Decimal], Decimal, bool]:
    """(tail, q_prev, coprime) for a pair a/b with short-form denominator b
    whose expansion continues the terms of p/q (denominator q) with Euclid on
    _remainder_pair's x/y: hwm_expansion's terms of a/b past those of p/q,
    the denominator of the convergent before a/b, and whether a/b is in
    lowest terms. With no terms before, q = 0 and x/y = a/b.

    Let R be the matrix of the tail terms after the first (the HWM term),
    and (u, q) the first row of the cofactors through the HWM term ((1, 0)
    with no terms before). Then R00 = K(tail[1:]) is y over g = gcd(x, y) =
    gcd(a, b), the reduced denominator is b/g = u*R00 + q*R10 and q_prev =
    u*R01 + q*R11. As tail[1:] has odd length, det R = -1, and eliminating
    u gives q_prev = (b/g * R01 - q) / R00 = (b*R01 - g*q) / y: one exact
    division, in which b stays short and the long HWM term enters no product.
    """
    with localcontext(arith.EXACT):
        tail = _lehmer_quotients(x, y)
        if len(tail) % 2:  # end on an odd index: Y-1, 1 in place of Y
            tail[-1:] = [tail[-1] - 1, Decimal(1)]
        r00, r01 = _continuant(tail[1:])
        g = arith._exact_quotient(y, r00)
        q_prev = arith._exact_quotient(b * r01 - g * q, y)
    return tail, q_prev, g == 1


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
    _write_lines(map(arith.to_digits, terms), fp)


def _write_lines(digit_strings: Iterable[str], fp: IO[str]) -> None:
    """write_coefficients from the coefficients' digit strings, such as str()
    of _hwm_chain's Decimals."""
    for s in digit_strings:
        fp.write(s)
        fp.write("\n")


def _coefficient_lines(fp: IO[str]) -> list[str]:
    """The lines of a coefficient file, each checked to be ASCII [0-9]+ with
    no leading zero except in 0 itself: one read, split on LF, so a CR stays
    in its line and fails it."""
    text = fp.read()
    # before the split, so that the bytes copy is gone before the lines exist
    plain = text.isascii() and not text.encode().translate(None, b"0123456789\n")
    lines = text.split("\n")
    if not lines[-1]:  # the LF that ends the last line, or an empty file
        lines.pop()
    if not lines:
        raise ValueError("empty coefficient file")
    # a file of ASCII digits and LFs passes at C speed where every line but a
    # first-line 0 sorts at or above "1": none is empty, none is led by 0;
    # any other file, a 0 past the first line too, goes line by line
    if not (
        plain
        and min(lines[1:], default="1") >= "1"
        and (lines[0] == "0" or lines[0] >= "1")
    ):
        for lineno, s in enumerate(lines):
            if not (s.isascii() and s.isdigit()) or (s[0] == "0" and len(s) > 1):
                s = s[: s.find("\r") + 1] or s  # as a newline="" stream ends it, at a bare CR
                raise ValueError(f"line {lineno + 1}: not a decimal coefficient: {s!r}")
    return lines


def read_coefficients(fp: IO[str]) -> list[int]:
    return [arith.from_digits(s) for s in _coefficient_lines(fp)]


def coefficient_digit_lengths(fp: IO[str]) -> list[int]:
    """Digit length per coefficient line, without parsing the values."""
    return [len(s) for s in _coefficient_lines(fp)]
