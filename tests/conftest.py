import sys

import pytest

from champcfe import digits_up_to, hwm_expansion

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
