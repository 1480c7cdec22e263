"""Sub-quadratic decimal conversion of large ints, imported by arith on first
use (as CPython imports _pylong), so the import of champcfe stays small."""

import decimal

from .arith import _LEAF, _LEAF_BITS, pow10


def digits_to_int(s: str) -> int:
    """int(s) for a validated digit string, halving around cached powers."""

    def inner(a, b):  # s[a:b]; the low part split off is _LEAF * 2**i digits long
        if b - a <= _LEAF:
            return int(s[a:b])
        k = _LEAF << (((b - a - 1) // _LEAF).bit_length() - 1)
        return inner(a, b - k) * pow10(k) + inner(b - k, b)

    return inner(0, len(s))


def int_to_digits(n: int) -> str:
    """str(n) for n >= 0: split by bits around powers of two held as exact
    Decimals, as in _pylong.int_to_decimal; str() of a Decimal is linear."""
    D = decimal.Decimal

    def inner(x, j):  # x < 2**(_LEAF_BITS << (j + 1))
        if x.bit_length() <= _LEAF_BITS:
            return D(x)
        w = _LEAF_BITS << j
        lo = inner(x & ((1 << w) - 1), j - 1)
        return inner(x >> w, j - 1) * pow2[j] + lo if x >> w else lo

    traps = [decimal.Inexact, decimal.Rounded, decimal.InvalidOperation]
    exact = decimal.Context(
        decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN, traps=traps
    )
    with decimal.localcontext(exact):
        pow2 = [D(1 << _LEAF_BITS)]  # pow2[j] = 2**(_LEAF_BITS << j)
        while _LEAF_BITS << len(pow2) < n.bit_length():
            pow2.append(pow2[-1] * pow2[-1])
        return str(inner(n, len(pow2) - 1))
