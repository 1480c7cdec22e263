"""Shared fixtures: the constant's first 80,000 digits, the level-8 and
level-9 coefficients as the program computes them (hwm_expansion, on the
level chain), int_expansion, the oracle for that path: plain int Euclid
run from the start, which no program code runs any more, and continuant,
the plain recurrence that the program's one continuant, cfe._continuant,
must match."""

import sys

import pytest

from champcfe import (
    arith,
    cfe_extract,
    denominator,
    digits_up_to,
    hwm_expansion,
    required_prefix_position,
)

# the oracles compare against int() and str() of operands far above the
# interpreter's default 4,300-digit conversion cap; the library itself
# stays under it (test_library_works_under_the_default_int_str_cap)
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)


@pytest.fixture(scope="session")
def truth_80k():
    return digits_up_to(80_000)


@pytest.fixture(scope="session")
def level8_terms(truth_80k):
    """Coefficients of the convergent before HWM #8 (indices 0..525)."""
    return hwm_expansion(8, truth_80k)[2]


@pytest.fixture(scope="session")
def level9():
    """The constant's first 500,000 digits and the coefficients of the
    convergent before HWM #9 (indices 0..1708)."""
    truth = digits_up_to(500_000)
    return truth, hwm_expansion(9, truth)[2]


@pytest.fixture(scope="session")
def int_expansion():
    """The oracle for hwm_expansion and the level chain, in plain int
    arithmetic: (numerator, denominator, terms) of level n from Euclid run
    from the start. The numerator is ceil(denominator(n) * V / 10**p) over
    the required digits V, or the known 10 at n = 4 (the half-scale
    identity); the terms end on an odd index, Y-1, 1 in place of Y."""

    def expand(n, truth):
        p, den = required_prefix_position(n), denominator(n)
        # floor(den*V / 10**p) by dropping p digits: int division of the
        # level-9 operands is quadratic, seconds where this takes a fraction
        s = arith.to_digits(den * arith.from_digits(truth.digits[: p + 1]))
        num = 10 if n == 4 else arith.from_digits(s[:-p]) + (s[-p:] != "0" * p)
        terms = cfe_extract(num, den)
        if len(terms) % 2:
            terms[-1:] = [terms[-1] - 1, 1]
        return num, den, terms

    return expand


def _plain_continuant(seq):
    """(K(seq), K(seq[:-1])) by the recurrence K = a*K + K_prev, one term at
    a time, with no check on the terms."""
    k, k_prev = 1, 0
    for a in seq:
        k, k_prev = a * k + k_prev, k
    return k, k_prev


@pytest.fixture(scope="session")
def continuant():
    """The oracle for cfe._continuant, the program's only continuant, and
    every q, q_prev and R00 taken from it: the plain recurrence, on ints
    or, inside arith.EXACT, Decimals."""
    return _plain_continuant
