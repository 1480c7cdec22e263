"""The deepest verification levels.

Level 9 runs in the default tier (its verification in about 0.3 s): it
reproduces the published NCD 5,888,883 and error 9.00001E-5,888,890,
plus the level-10 jump that exposes the 4,911,098-digit coefficient,
matches the level chain against the int expansion, and confirms the
child at coefficient 1221. Level 10's full verification and the level-11
numerator are marked deep: each generates 68.9 million digits and is
excluded by default; run them with `pytest -m deep -v -s`.
"""

from decimal import Decimal

import pytest

from champcfe import (
    DigitLocation,
    digits_up_to,
    hwm_expansion,
    verify_child,
    verify_hwm,
)
from champcfe import cfe
from champcfe.arith import digit_count


@pytest.fixture(scope="module")
def level9():
    truth = digits_up_to(500_000)
    return truth, hwm_expansion(9, truth)[2]


def test_level9_full_verification():
    p = verify_hwm(9, compute_error=True, check_next_hwm=True)
    assert p.status == "confirmed"
    assert p.coefficient_index == 1708
    assert p.observed_ncd == 5_888_883
    assert str(p.error_observed.round_to(6)) == "9.00001E-5888890"
    assert p.first_fail == DigitLocation(999_998, 6)
    assert p.fails_as == 999_999
    assert p.total_coefficient_digits == 489_981
    assert p.c10_digits_used == 488_891
    assert p.next_hwm_length == 4_911_098
    print("\ndeep: level 9 confirmed, error 9.00001E-5888890, next length 4911098")


def test_level9_chain_matches_the_int_expansion(level9):
    truth, want = level9
    value = Decimal(truth.digits)
    chain = cfe._level_chain([cfe._short_pair(m, truth, value) for m in range(4, 10)])
    terms, q_prev, coprime = chain
    assert terms == want
    assert coprime
    assert q_prev == cfe._continuant(want[1:])[1]


def test_level9_child_1221(level9):
    terms = level9[1]
    child = verify_child(1221, terms)
    assert child.status == "confirmed"
    assert str(child.error_observed.round_to(5)) == "-8.9992E-938890"
    assert child.denominator_shape.lengths() == (33, 449967, 32, 2885)
    assert child.child_length == 33056
    assert digit_count(terms[1221]) == 33056
    print("\ndeep: child at 1221 confirmed, shape 33/449967/32/2885")


@pytest.mark.deep
def test_level10_full_verification():
    p = verify_hwm(10, compute_error=True, check_next_hwm=True)
    assert p.status == "confirmed"
    assert p.coefficient_index == 4838
    assert p.observed_ncd == 68_888_882
    assert p.next_hwm_length == 57_111_096
    print("\ndeep: level 10 confirmed, 4838 terms, next length 57111096")


@pytest.mark.deep
def test_level11_numerator_patterns():
    """The 68.9M-digit numerator carries the published nine-run structure:
    a 35987 run plus a separate 165 run, and the 40000009 tail."""
    import re

    truth = digits_up_to(68_888_900)
    s = str(cfe._short_pair(11, truth, Decimal(truth.digits))[0])  # exponent 0: its digits
    assert len(s) == 68_888_897
    assert s.endswith("4" + "0" * 6 + "9")
    runs = sorted((len(m.group()) for m in re.finditer(r"9+", s)), reverse=True)
    assert runs[0] == 35987
    assert runs[1] == 165
    print("\ndeep: level 11 numerator has nine-runs 35987 and 165, tail 40000009")
