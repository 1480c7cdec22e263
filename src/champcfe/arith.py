"""Big-integer helpers shared by the digit and convergent machinery.

Everything here works on plain Python ints. Conversions above a few
thousand digits go through _radix, which splits them in halves and stays
sub-quadratic where CPython's own int/str conversions are quadratic.
"""

from __future__ import annotations

import functools

# plain int is the only backend; kept because benchmark results are stamped
# with the backend read from here
HAVE_GMPY2 = False

_LEAF = 3000  # digits converted by int()/str() directly; CPython is fast below this
_LEAF_BITS = 10_000  # about _LEAF digits


@functools.lru_cache(maxsize=32)
def pow10(k: int) -> int:
    return 10**k


def digit_count(n) -> int:
    """Exact number of decimal digits of n >= 0."""
    if n < 0:
        raise ValueError("digit_count expects a non-negative integer")
    bits = n.bit_length()
    if bits <= _LEAF_BITS:
        return len(str(n))
    # 10**k <= n < 10**(k+1) for k = floor(log10(2**(bits-1))) or k+1; the
    # loops only correct the float estimate and step across the boundary
    k = int((bits - 1) * 0.30102999566398120)
    p = pow10(k)
    while n < p:
        k, p = k - 1, p // 10
    p *= 10
    while n >= p:
        k, p = k + 1, p * 10
    return k + 1


def to_digits(n) -> str:
    """Decimal digit string of n >= 0 (no sign, no separators)."""
    if n < 0:
        raise ValueError("to_digits expects a non-negative integer")
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    from ._radix import int_to_digits  # loaded on first use

    return int_to_digits(n)


def from_digits(s: str) -> int:
    """Parse a nonempty string of ASCII digits (leading zeros allowed) to int."""
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"not a decimal digit string: {s[:20]!r}")
    if len(s) <= _LEAF:
        return int(s)
    from ._radix import digits_to_int  # loaded on first use

    return digits_to_int(s)


def first_difference(a: str, b: str) -> int | None:
    """Index of the first differing character, or None if one string is a
    prefix of the other."""
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None
