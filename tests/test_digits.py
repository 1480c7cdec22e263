import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from champcfe import (
    DigitBudgetError,
    DigitLocation,
    digits_up_to,
    locate_position,
    position_of_integer,
    position_of_power,
)


def naive_concatenation(p):
    """Independent oracle: append one integer at a time."""
    parts = ["0"]
    total = 1
    n = 1
    while total <= p:
        s = str(n)
        parts.append(s)
        total += len(s)
        n += 1
    return "".join(parts)[: p + 1]


def scan_locate(p):
    """Independent oracle: walk the sequence digit by digit."""
    pos = 0
    n = 0
    while True:
        n += 1
        for ordinal, _ in enumerate(str(n), start=1):
            pos += 1
            if pos == p:
                return DigitLocation(n, ordinal)


@pytest.mark.parametrize(
    "m,expected", [(0, 1), (1, 10), (2, 190), (3, 2890), (4, 38890), (9, 8888888890)]
)
def test_position_of_power(m, expected):
    assert position_of_power(m) == expected


def test_position_of_power_closed_form_matches_the_block_sum():
    for m in range(301):
        assert position_of_power(m) == 1 + sum(9 * k * 10 ** (k - 1) for k in range(1, m + 1))


def test_position_of_power_rejects_negative():
    with pytest.raises(ValueError):
        position_of_power(-1)


@pytest.mark.parametrize("p,expected", [(1, "01"), (10, "01234567891"), (0, "0")])
def test_digits_up_to_examples(p, expected):
    assert digits_up_to(p).digits == expected


def test_digit_budget_guard():
    with pytest.raises(DigitBudgetError) as exc:
        digits_up_to(101, max_digits=100)
    assert exc.value.requested == 101
    assert exc.value.budget == 100


def test_prefix_scaled_integer():
    prefix = digits_up_to(10)
    assert prefix.last_position == 10
    assert prefix.as_scaled_integer() == 1234567891


def test_digits_match_naive_oracle():
    for p in (0, 1, 9, 10, 11, 188, 189, 190, 2890, 50_000):
        assert digits_up_to(p).digits == naive_concatenation(p)


def test_sized_generation_matches_naive_oracle_at_every_short_length():
    for p in range(201):
        assert digits_up_to(p).digits == naive_concatenation(p)


@pytest.mark.parametrize("boundary", [10, 100, 10_000, 10_000 + 2**14])
def test_sized_generation_across_block_boundaries(boundary):
    # the first digit of `boundary` starts a block of wider integers, or
    # (10_000 + 2**14) the second join chunk of the five-digit block
    start = position_of_integer(boundary)
    oracle = naive_concatenation(start + 12)
    for p in range(max(0, start - 12), start + 13):
        assert digits_up_to(p).digits == oracle[: p + 1]


def test_digits_match_naive_oracle_large():
    p = 1_000_000
    assert digits_up_to(p).digits == naive_concatenation(p)


@pytest.mark.parametrize(
    "p,integer,ordinal",
    [(1, 1, 1), (15, 12, 2), (5589, 1674, 4), (14, 12, 1), (9, 9, 1), (10, 10, 1)],
)
def test_locate_position(p, integer, ordinal):
    assert locate_position(p) == DigitLocation(integer, ordinal)


def test_locate_position_zero_is_domain_error():
    with pytest.raises(ValueError):
        locate_position(0)


def test_locate_position_against_scan_oracle():
    for p in [1, 2, 9, 10, 11, 15, 188, 189, 190, 191, 2889, 2890, 5589, 12345]:
        assert locate_position(p) == scan_locate(p)


@pytest.mark.parametrize("n,expected", [(1, 1), (12, 14), (1674, 5586), (10, 10)])
def test_position_of_integer(n, expected):
    assert position_of_integer(n) == expected


def test_power_positions_agree_with_integer_positions():
    for m in range(10):
        assert position_of_power(m) == position_of_integer(10**m)


@given(n=st.integers(min_value=1, max_value=10**6), data=st.data())
@settings(max_examples=300, deadline=None)
def test_locate_round_trip(n, data):
    width = len(str(n))
    k = data.draw(st.integers(min_value=0, max_value=width - 1))
    loc = locate_position(position_of_integer(n) + k)
    assert loc == DigitLocation(n, k + 1)


@given(p=st.integers(min_value=1, max_value=3000))
@settings(max_examples=100, deadline=None)
def test_located_digit_matches_generated_digit(p):
    loc = locate_position(p)
    assert digits_up_to(p).digits[p] == str(loc.integer)[loc.digit_ordinal - 1]
