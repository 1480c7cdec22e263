"""Big-integer helpers shared by the digit and convergent machinery.

Everything here works on plain Python ints. When gmpy2 is importable the
radix conversions and large divisions are routed through GMP. Without it
conversions above a few thousand digits go through _radix, which splits
them in halves and stays sub-quadratic where CPython's own int/str
conversions are quadratic.
"""

from __future__ import annotations

import functools
import math

try:
    import gmpy2

    HAVE_GMPY2 = True
except ImportError:  # pragma: no cover - exercised via the forced-fallback test
    gmpy2 = None
    HAVE_GMPY2 = False

_LEAF = 3000  # digits converted by int()/str() directly; CPython is fast below this
_LEAF_BITS = 10_000  # about _LEAF digits


def mz(x):
    """Wrap an int for fast arithmetic (mpz when available, else identity)."""
    return gmpy2.mpz(x) if HAVE_GMPY2 else x


@functools.lru_cache(maxsize=32)
def pow10(k: int):
    return mz(10) ** k if HAVE_GMPY2 else 10**k


def digit_count(n) -> int:
    """Exact number of decimal digits of n >= 0."""
    if n < 0:
        raise ValueError("digit_count expects a non-negative integer")
    if HAVE_GMPY2:
        n = gmpy2.mpz(n)
        d = n.num_digits(10)
        # num_digits may overestimate by one
        if d > 1 and n < gmpy2.mpz(10) ** (d - 1):
            d -= 1
        return d
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
    if HAVE_GMPY2:
        return gmpy2.mpz(n).digits(10)
    n = int(n)
    if n.bit_length() <= _LEAF_BITS:
        return str(n)
    from ._radix import int_to_digits  # loaded on first use

    return int_to_digits(n)


def from_digits(s: str) -> int:
    """Parse a nonempty string of ASCII digits (leading zeros allowed) to int."""
    if not (s.isascii() and s.isdigit()):
        raise ValueError(f"not a decimal digit string: {s[:20]!r}")
    if HAVE_GMPY2:
        return int(gmpy2.mpz(s, 10))
    if len(s) <= _LEAF:
        return int(s)
    from ._radix import digits_to_int  # loaded on first use

    return digits_to_int(s)


def scaled_quotient(num, den, shift: int) -> int:
    """floor(num * 10**shift / den), exact."""
    return int((mz(num) * pow10(shift)) // mz(den))


def gcd(a, b) -> int:
    if HAVE_GMPY2:
        return int(gmpy2.gcd(gmpy2.mpz(a), gmpy2.mpz(b)))
    return math.gcd(int(a), int(b))


def first_difference(a: str, b: str) -> int | None:
    """Index of the first differing character, or None if one string is a
    prefix of the other. Binary search over slice equality, so the scan cost
    is a handful of memcmps even on multi-megabyte strings."""
    n = min(len(a), len(b))
    if a[:n] == b[:n]:
        return None
    lo, hi = 0, n  # invariant: a[:lo] == b[:lo], a[:hi] != b[:hi]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid
    return lo
