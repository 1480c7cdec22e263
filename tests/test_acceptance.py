"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import math
import random

import pytest

from champcfe import (
    DigitBudgetError,
    DigitLocation,
    cfe_extract,
    child_denominator_shape,
    child_error_profile,
    child_length,
    classify,
    convergent_from_coefficients,
    denominator,
    denominator_sci,
    digits_up_to,
    error_profile,
    hwm_length,
    locate_position,
    measure_error,
    naive_cfe,
    ncd,
    position_of_integer,
    verify_child,
    verify_hwm,
)
from champcfe.arith import digit_count
from champcfe.cli import main as cli_main

LEVELS = (4, 5, 6, 7, 8)

TABLE1_INDICES = {4: 4, 5: 18, 6: 40, 7: 162, 8: 526}
TABLE1_NCD = {4: 8, 5: 187, 6: 2886, 7: 38885, 8: 488884}
TABLE1_ERRORS = {
    4: "1.0E-9",
    5: "9.1E-190",
    6: "9.01E-2890",
    7: "9.001E-38890",
    8: "9.0001E-488890",
}
TABLE1_DENOMINATORS = {
    5: "4.9005E+11",
    6: "4.990005E+192",
    7: "4.99900005E+2893",
    8: "4.9999000005E+38894",
}
TABLE2_TOTAL_CFE_DIGITS = {4: 4, 5: 24, 6: 217, 7: 2995, 8: 39231}
TABLE2_DIGITS_USED = {4: 2, 5: 11, 6: 191, 7: 2891, 8: 38891}
HWM_LENGTH_CHAIN = {5: 166, 6: 2504, 7: 33102, 8: 411100}

LEVEL5_TERMS = [0, 8, 9, 1, 149083, 1, 1, 1, 4, 1, 1, 1, 3, 4, 1, 1, 1, 15]


def report(number: int, ok: bool, description: str) -> None:
    print(f"\nacceptance criterion {number}: {'PASS' if ok else 'FAIL'} - {description}")


@pytest.fixture(scope="module")
def profiles():
    return {n: verify_hwm(n, compute_error=True, check_next_hwm=True) for n in LEVELS}


@pytest.fixture(scope="module")
def level8(truth_80k, level8_terms):
    return level8_terms


def test_criterion_1_table1_reproduction(profiles):
    ok = True
    for n in LEVELS:
        p = profiles[n]
        ok &= p.status == "confirmed"
        ok &= p.coefficient_index == TABLE1_INDICES[n]
        ok &= p.observed_ncd == TABLE1_NCD[n]
        rounded = p.error_observed.round_to(len(p.error_predicted.digits))
        ok &= str(rounded) == TABLE1_ERRORS[n]
        ok &= rounded.exponent == p.error_predicted.exponent
        if n >= 5:
            sci = denominator_sci(n)
            ok &= str(sci) == TABLE1_DENOMINATORS[n]
            exact = int(sci.digits) * 10 ** (sci.exponent - len(sci.digits) + 1)
            ok &= denominator(n) == exact
        else:
            ok &= denominator(n) == 81
    report(1, ok, "levels 4..8 confirmed with exact indices, NCD, errors, denominators")
    assert ok


def test_criterion_2_table2_efficiency(profiles):
    ok = True
    for n in LEVELS:
        p = profiles[n]
        ok &= p.total_coefficient_digits == TABLE2_TOTAL_CFE_DIGITS[n]
        ok &= p.c10_digits_used == TABLE2_DIGITS_USED[n]
    report(2, ok, "coefficient-digit totals and required digit counts match")
    assert ok


def test_criterion_3_method_comparison():
    naive = naive_cfe(digits_up_to(10))
    convergent_terms = cfe_extract(
        60_499_999_499, 490_050_000_000, final_index_parity="odd"
    )
    ok = naive.terms[4] == 148921
    ok &= convergent_terms[4] == 149083
    ok &= convergent_terms == LEVEL5_TERMS
    ok &= convergent_terms[-1] == 15
    report(3, ok, "digit-truncation method diverges at term 4; exact method matches")
    assert ok


def test_criterion_4_hwm_length_chain(profiles):
    ok = True
    for n, expected in HWM_LENGTH_CHAIN.items():
        p = profiles[n]
        ok &= p.next_hwm_length == expected == hwm_length(n)
        ok &= p.coefficient_index % 2 == 0
    report(4, ok, "next-level coefficients expose lengths 166/2504/33102/411100 at even indices")
    assert ok


def test_criterion_5_child_checks(level8):
    lengths = [digit_count(t) for t in level8]
    entries = {e.coefficient_index: e for e in classify(lengths)}
    ok = entries[101].generation == 2 and entries[101].digit_length == 140
    ok &= entries[357].generation == 2 and entries[357].digit_length == 2468

    child101 = verify_child(101, level8)
    child357 = verify_child(357, level8)
    ok &= child101.status == "confirmed"
    ok &= child357.status == "confirmed"
    ok &= str(child101.error_observed.round_to(3)) == "-8.92E-5590"
    ok &= str(child357.error_observed.round_to(4)) == "-8.992E-74890"
    ok &= child101.observed_ncd == 5589
    ok &= child101.first_fail == DigitLocation(1674, 4)
    ok &= locate_position(5589) == DigitLocation(1674, 4)
    report(5, ok, "children at 101/357 with exact lengths, errors, and failing digit 1674:4")
    assert ok


def test_criterion_6_child_denominator_shape(level8):
    shape = verify_child(101, level8).denominator_shape
    ok = shape.preamble == "3384585496849525154"
    ok &= shape.nines_count == 2681
    ok &= shape.penultimate == "664929355687517845"
    ok &= shape.zeroes_count == 7
    ok &= shape.total_length == 2725
    ok &= shape.lengths() == child_denominator_shape(6)
    report(6, ok, "denominator at index 101 splits into the exact published blocks")
    assert ok


def test_criterion_7_property_suites(profiles, truth_80k):
    rng = random.Random(143534)
    ok = True

    # continued-fraction round trip on a thousand random rationals
    for _ in range(1000):
        num = rng.randint(0, 10**12)
        den = rng.randint(1, 10**12)
        terms = cfe_extract(num, den)
        r = convergent_from_coefficients(terms)
        g = math.gcd(num, den)
        ok &= (r.numerator, r.denominator) == (num // g, den // g)

    # position round trip on a hundred thousand integers
    for _ in range(100_000):
        n = rng.randint(1, 10**6)
        width = len(str(n))
        k = rng.randrange(width)
        loc = locate_position(position_of_integer(n) + k)
        ok &= loc == DigitLocation(n, k + 1)

    # generated digits against the naive concatenation oracle
    parts, total, i = ["0"], 1, 1
    while total <= 1_000_000:
        s = str(i)
        parts.append(s)
        total += len(s)
        i += 1
    ok &= digits_up_to(1_000_000).digits == "".join(parts)[: 1_000_001]

    # every extracted convergent is in lowest terms
    for n in LEVELS:
        ok &= any(
            c.field == "lowest_terms" and c.ok for c in profiles[n].checks
        )

    # error mantissas are stable under a larger guard
    from champcfe import hwm_convergent

    for n in (5, 6):
        num, den = hwm_convergent(n, truth_80k)
        a = measure_error(num, den, truth_80k, mantissa_digits=6, guard_digits=10)
        b = measure_error(num, den, truth_80k, mantissa_digits=6, guard_digits=20)
        ok &= a == b

    report(7, ok, "round-trip, oracle, lowest-terms, and refinement properties hold")
    assert ok


def test_criterion_8_desk_scale_limits():
    # the predictors still speak for the levels no desk can compute
    ok = hwm_length(12) == 7_311_111_092
    ok &= hwm_length(13) == 81_111_111_090
    ok &= hwm_length(14) == 891_111_111_088
    ok &= ncd(12) == 8_888_888_880
    ok &= str(error_profile(12)) == "9.00000001E-8888888890"
    ok &= str(denominator_sci(12)) == "4.999999990000000005E+788888898"
    ok &= str(child_error_profile(12)) == "-8.99999992E-16988888890"
    ok &= child_length(11) == 651_111_008
    ok &= sum(child_denominator_shape(12)) == 8_168_888_941

    # while the end-to-end computation is refused up front
    with pytest.raises(DigitBudgetError):
        verify_hwm(11)
    ok &= cli_main(["verify", "--hwm", "11", "--deep"]) == 1
    ok &= cli_main(["verify", "--hwm", "12"]) == 1
    report(8, ok, "levels 11+ are prediction-only; end-to-end runs are refused")
    assert ok
