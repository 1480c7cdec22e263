from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from champcfe import (
    SciDecimal,
    child_denominator_shape,
    child_error_profile,
    child_length,
    denominator,
    denominator_sci,
    error_profile,
    failing_integer,
    failure_tail,
    hwm_length,
    ncd,
    parity_consistent,
    parse_denominator_shape,
    position_of_power,
)
from champcfe.predict import denominator_digit_count

DATA = Path(__file__).parent / "data"

# published characteristics per level (digit counts of each HWM coefficient)
KNOWN_HWM_LENGTHS = {
    4: 6,
    5: 166,
    6: 2504,
    7: 33102,
    8: 411100,
    9: 4911098,
    10: 57111096,
    11: 651111094,
    12: 7311111092,
    13: 81111111090,
    14: 891111111088,
}

KNOWN_NCD = {
    3: 0,
    4: 8,
    5: 187,
    6: 2886,
    7: 38885,
    8: 488884,
    9: 5888883,
    10: 68888882,
    11: 788888881,
    12: 8888888880,
    13: 98888888879,
    14: 1088888888878,
}


def test_ncd_known_values():
    for n, expected in KNOWN_NCD.items():
        assert ncd(n) == expected


def test_ncd_rejects_small_n():
    with pytest.raises(ValueError):
        ncd(2)


def test_hwm_lengths_match_published_table():
    for n, expected in KNOWN_HWM_LENGTHS.items():
        assert hwm_length(n) == expected
    published = [int(s) for s in (DATA / "hwm_lengths.txt").read_text().split()]
    for n, expected in zip(range(4, 12), published[3:]):
        assert hwm_length(n) == expected


def test_denominator_examples():
    assert denominator(5) == 490_050_000_000
    assert denominator(6) == 4990005 * 10**186
    assert str(denominator_sci(5)) == "4.9005E+11"
    assert str(denominator_sci(6)) == "4.990005E+192"
    assert str(denominator_sci(12)) == "4.999999990000000005E+788888898"


def test_denominator_exponent_instantiation():
    assert denominator_sci(5).exponent == ncd(4) + 2 * 3 - 3 == 11


def test_denominator_covers_the_half_scale_case():
    assert denominator(4) == 81
    assert str(denominator_sci(4)) == "8.1E+1"
    with pytest.raises(ValueError):
        denominator(3)


def test_denominator_digit_counts():
    for n in range(5, 9):
        assert len(str(denominator(n))) == denominator_digit_count(n)
    assert denominator_digit_count(4) == 2  # 81, via ncd(3) = 0


@given(n=st.integers(min_value=5, max_value=300))
@settings(max_examples=60)
def test_denominator_digit_count_formula(n):
    sci = denominator_sci(n)
    # one leading digit before the point, so the integer has exponent+1 digits
    assert sci.exponent + 1 == denominator_digit_count(n)
    assert len(sci.digits) == 2 * n - 5


def test_error_profile_examples():
    assert str(error_profile(4)) == "1.0E-9"
    assert str(error_profile(5)) == "9.1E-190"
    assert str(error_profile(6)) == "9.01E-2890"
    assert str(error_profile(12)) == "9.00000001E-8888888890"


@given(n=st.integers(min_value=5, max_value=200))
@settings(max_examples=60)
def test_error_exponent_is_power_position(n):
    assert error_profile(n).exponent == -position_of_power(n - 3)


def test_failing_integer_examples():
    assert failing_integer(4) == (8, 9)
    assert failing_integer(5) == (98, 99)
    assert failing_integer(13) == (9_999_999_998, 9_999_999_999)


def test_failure_tail_examples():
    assert failure_tail(4) == "9012"
    assert failure_tail(5) == "9000102"
    # empirically confirmed against the computed level-6 expansion in test_verify
    assert failure_tail(6) == "9000001002"


def test_child_length_table():
    expected = {
        5: 140,
        6: 2468,
        7: 33056,
        8: 411044,
        9: 4911032,
        10: 57111020,
        11: 651111008,
        12: 7311110996,
    }
    for n, value in expected.items():
        assert child_length(n) == value


@given(n=st.integers(min_value=5, max_value=200))
@settings(max_examples=60)
def test_child_length_difference_progression(n):
    assert hwm_length(n) - child_length(n) == 10 * (n - 5) + 26


def test_child_error_profile_table():
    expected = {
        6: "-8.92E-5590",
        7: "-8.992E-74890",
        8: "-8.9992E-938890",
        9: "-8.99992E-11288890",
        10: "-8.999992E-131888890",
        11: "-8.9999992E-1508888890",
        12: "-8.99999992E-16988888890",
        13: "-8.999999992E-188888888890",
    }
    for n, value in expected.items():
        assert str(child_error_profile(n)) == value


def test_child_error_exponent_instantiation():
    assert -child_error_profile(6).exponent == -2 * (-2890) - 187 - 6 + 3 == 5590


def test_child_denominator_shape_table():
    expected = {
        6: (19, 2681, 18, 7, 2725),
        7: (26, 35974, 25, 186, 36211),
        8: (33, 449967, 32, 2885, 452917),
        9: (40, 5399960, 39, 38884, 5438923),
        10: (47, 62999953, 46, 488883, 63488929),
        11: (54, 719999946, 53, 5888882, 725888935),
        12: (61, 8099999939, 60, 68888881, 8168888941),
    }
    for n, (pre, nines, pen, zeroes, total) in expected.items():
        shape = child_denominator_shape(n)
        assert shape == (pre, nines, pen, zeroes)
        assert sum(shape) == total


def test_shape_total_formula_instantiation():
    assert sum(child_denominator_shape(6)) == 2886 - 187 + 8 + 28 - 10 == 2725


def test_parity_rule():
    assert parity_consistent(34062, generation=1)
    assert parity_consistent(101, generation=2)
    assert not parity_consistent(13521, generation=1)
    assert not parity_consistent(13522, generation=2)
    with pytest.raises(ValueError):
        parity_consistent(10, generation=3)


def test_oracles_are_pure():
    assert ncd(7) == ncd(7)
    assert error_profile(9) == error_profile(9)
    assert child_denominator_shape(8) == child_denominator_shape(8)


class TestSciDecimal:
    def test_str_forms(self):
        assert str(SciDecimal(+1, "91", -190)) == "9.1E-190"
        assert str(SciDecimal(-1, "892", -5590)) == "-8.92E-5590"
        assert str(SciDecimal(+1, "49005", 11)) == "4.9005E+11"
        assert str(SciDecimal(+1, "9", -5)) == "9E-5"

    def test_rejects_bad_mantissa(self):
        with pytest.raises(ValueError):
            SciDecimal(+1, "091", -3)
        with pytest.raises(ValueError):
            SciDecimal(+1, "", -3)
        with pytest.raises(ValueError):
            SciDecimal(0, "91", -3)

    def test_round_to(self):
        assert SciDecimal(+1, "89197323", -5590).round_to(3).digits == "892"
        assert SciDecimal(+1, "91010193", -190).round_to(2).digits == "91"
        assert SciDecimal(+1, "10223446", -9).round_to(2).digits == "10"

    def test_round_to_carries_into_exponent(self):
        rounded = SciDecimal(+1, "996", -10).round_to(2)
        assert rounded.digits == "10"
        assert rounded.exponent == -9

    def test_round_to_is_idempotent_at_length(self):
        x = SciDecimal(-1, "8992", -74890)
        assert x.round_to(4) is x


class TestShapeParsing:
    def test_round_trip(self):
        raw = "123" + "9" * 40 + "77" + "0" * 6
        shape = parse_denominator_shape(raw)
        assert shape.lengths() == (3, 40, 2, 6)
        assert shape.realize() == int(raw)

    def test_rejects_non_digits(self):
        with pytest.raises(ValueError):
            parse_denominator_shape("12a4")

    def test_rejects_runless_input(self):
        with pytest.raises(ValueError):
            parse_denominator_shape("123450000")
