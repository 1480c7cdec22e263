"""Big-integer helpers shared by the digit and convergent machinery.

The conversions work on plain Python ints: above a few thousand digits
they split the operand in halves, which stays sub-quadratic where
CPython's own int/str conversions are quadratic. EXACT, _exact_quotient
and _product are the exact Decimal arithmetic that the expansion and the
verifier run on, and _divmod is the division that Euclid's long quotients
take.
"""

from __future__ import annotations

import decimal
import functools

# plain int is the only backend; kept because champbench/run.py stamps its
# results with the backend read from here
HAVE_GMPY2 = False

_LEAF = 3000  # digits converted by int()/str() directly; CPython is fast below this
_LEAF_BITS = 10_000  # about _LEAF digits

# exact Decimal arithmetic, any rounding trapped: open with decimal.localcontext
_TRAPS = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation, decimal.DivisionByZero]
EXACT = decimal.Context(
    decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=_TRAPS
)


@functools.lru_cache(maxsize=32)
def pow10(k: int) -> int:
    return 10**k


def to_digits(n) -> str:
    """Decimal digit string of n >= 0 (no sign, no separators)."""
    if n < 0:
        raise ValueError("to_digits expects a non-negative integer")
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    return str(to_decimal(n))  # exponent 0, so str() is the plain digit string


def to_decimal(n: int) -> decimal.Decimal:
    """n as an exact Decimal with exponent 0, by halving around exact powers
    of two as in _pylong.int_to_decimal; Decimal(n) is quadratic."""
    if n < 0:
        return to_decimal(-n).copy_negate()  # exact, needs no context
    with decimal.localcontext(EXACT):
        if n.bit_length() <= _LEAF_BITS:
            return decimal.Decimal(n)
        pow2 = [decimal.Decimal(1 << _LEAF_BITS)]  # pow2[j] = 2**(_LEAF_BITS << j)
        while _LEAF_BITS << len(pow2) < n.bit_length():
            pow2.append(pow2[-1] * pow2[-1])
        return _int_to_decimal(n, len(pow2) - 1, pow2)


def from_digits(s: str) -> int:
    """Parse a nonempty string of ASCII digits (leading zeros allowed) to int."""
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"not a decimal digit string: {s[:20]!r}")
    if len(s) <= _LEAF:
        return int(s)
    return _digits_to_int(s, 0, len(s))


# The two halving conversions recurse at module level: a nested function
# that calls itself forms a reference cycle through its closure, which would
# keep each converted operand alive until the next full garbage collection.


def _digits_to_int(s: str, a: int, b: int) -> int:
    """int(s[a:b]) for a validated digit string, halving around cached
    powers; the low part split off is _LEAF * 2**i digits long."""
    if b - a <= _LEAF:
        return int(s[a:b])
    k = _LEAF << (((b - a - 1) // _LEAF).bit_length() - 1)
    return _digits_to_int(s, a, b - k) * pow10(k) + _digits_to_int(s, b - k, b)


def _int_to_decimal(x: int, j: int, pow2: list) -> decimal.Decimal:
    """x < 2**(_LEAF_BITS << (j + 1)) as an exact Decimal."""
    if x.bit_length() <= _LEAF_BITS:
        return decimal.Decimal(x)
    w = _LEAF_BITS << j
    lo = _int_to_decimal(x & ((1 << w) - 1), j - 1, pow2)
    return _int_to_decimal(x >> w, j - 1, pow2) * pow2[j] + lo if x >> w else lo


def _exact_quotient(a: decimal.Decimal, b: decimal.Decimal | int) -> decimal.Decimal:
    """a / b for integral Decimals (or an int b), under EXACT; ArithmeticError
    unless b divides a."""
    # divmod, not /: under EXACT an inexact / fails with MemoryError, not Inexact
    quotient, remainder = divmod(a, b)
    if remainder:
        raise ArithmeticError("the divisor does not divide the dividend exactly")
    return quotient


# from two libmpdec words on, a quotient pays for _divmod's split
_LONG_QUOTIENT = 2 * 19


def _divmod(a: decimal.Decimal, b: decimal.Decimal) -> tuple[decimal.Decimal, decimal.Decimal]:
    """divmod(a, b) for integral Decimals a >= 0 < b, under EXACT.

    Where b is B * 10**s with s > 0, held as a positive exponent or as
    trailing zeros, and the quotient has _LONG_QUOTIENT digits or more, the
    division runs on B alone: q = floor(floor(a / 10**s) / B) and r = that
    division's remainder times 10**s plus a mod 10**s, both with exponent 0.
    libmpdec's divmod would first write the s zeros back into b and then
    cost as much as a division by a divisor of b's full width."""
    with decimal.localcontext(EXACT):
        if a.adjusted() - b.adjusted() >= _LONG_QUOTIENT:
            short = b.normalize()  # B held with exponent s
            s = (short * 0).adjusted()  # a zero's adjusted() is its exponent
            if s > 0:
                # exact floor: to_integral_value signals neither Inexact nor Rounded
                hi = a.scaleb(-s).to_integral_value(decimal.ROUND_FLOOR)
                q, r = divmod(hi, short.scaleb(-s))
                # a mod 10**s at exponent 0 keeps the remainder at exponent 0: a
                # long operand off exponent 0 makes every later step realign it
                return q, r.scaleb(s) + (a - hi.scaleb(s)).quantize(1)
        return divmod(a, b)


# libmpdec multiplies schoolbook while the shorter factor has at most 256
# words of 19 digits, however long the other
_SCHOOLBOOK_DIGITS = 256 * 19


def _product(a: decimal.Decimal, b: decimal.Decimal) -> decimal.Decimal:
    """a * b for integral Decimals with exponent 0, exact in any context.
    From 100 words (1,900 digits) on, a shorter factor in that window is faster
    with trailing zeros up to one digit past it: the product then takes the
    number-theoretic transform, and to_integral_value drops the zeros,
    signalling neither Inexact nor Rounded."""
    with decimal.localcontext(EXACT):
        short, long = (a, b) if a.adjusted() <= b.adjusted() else (b, a)
        n = short.adjusted() + 1
        if not 100 * 19 < n <= _SCHOOLBOOK_DIGITS < long.adjusted() + 1:
            return a * b
        pad = _SCHOOLBOOK_DIGITS + 1 - n
        return (short.scaleb(pad).quantize(1) * long).scaleb(-pad).to_integral_value()


def first_difference(a: str, b: str) -> int | None:
    """Index of the first differing character, or None if one string is a
    prefix of the other."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None
