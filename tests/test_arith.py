import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from champcfe import arith


@given(n=st.integers(min_value=0, max_value=10**40))
@settings(max_examples=300)
def test_digit_count_matches_str(n):
    assert arith.digit_count(n) == len(str(n))


def test_digit_count_at_power_boundaries():
    # the bit-length estimate must step across each power of ten exactly
    for k in (0, 1, 3, 5, 30, 100, 5000):
        assert arith.pow10(k) == 10**k
        assert arith.digit_count(10**k) == k + 1
        assert arith.digit_count(10**k - 1) == max(1, k)
        assert arith.digit_count(10**k + 1) == k + 1


def test_digit_count_rejects_negative():
    with pytest.raises(ValueError):
        arith.digit_count(-1)


@given(n=st.integers(min_value=0, max_value=10**60))
@settings(max_examples=200)
def test_digit_string_round_trip(n):
    assert arith.from_digits(arith.to_digits(n)) == n
    assert arith.to_digits(n) == str(n)


@given(a=st.text(alphabet="019", max_size=40), b=st.text(alphabet="019", max_size=40))
@settings(max_examples=300)
def test_first_difference(a, b):
    expected = None
    for i in range(min(len(a), len(b))):
        if a[i] != b[i]:
            expected = i
            break
    assert arith.first_difference(a, b) == expected


def test_first_difference_on_long_strings():
    base = "12345" * 200_000
    assert arith.first_difference(base, base) is None
    mutated = base[:777_777] + "x" + base[777_778:]
    assert arith.first_difference(base, mutated) == 777_777


# The divide-and-conquer conversions against CPython's own int()/str(),
# on both sides of every split size they use.
LEAF = 3000
SPLIT_SIZES = [1, 2, 17, LEAF - 1, LEAF, LEAF + 1, 2 * LEAF, 2 * LEAF + 1, 4 * LEAF + 7, 20_011]


@pytest.mark.parametrize("size", SPLIT_SIZES)
def test_conversions_across_split_sizes(size):
    rng = random.Random(size)
    for lead in "19":
        s = lead + "".join(rng.choice("0123456789") for _ in range(size - 1))
        n = int(s)
        assert arith.from_digits(s) == n
        assert arith.from_digits("000" + s) == n
        assert arith.to_digits(n) == s
        assert arith.digit_count(n) == size


@pytest.mark.parametrize("k", [1, 2, 9, 300, 2999, 3000, 3001, 3010, 3011, 6021, 10**4, 30_103])
def test_powers_of_ten_and_neighbours(k):
    for n in (10**k - 1, 10**k, 10**k + 1):
        s = str(n)
        assert arith.digit_count(n) == len(s)
        assert arith.to_digits(n) == s
        assert arith.from_digits(s) == n


def test_powers_of_ten_at_one_hundred_thousand_digits():
    k = 10**5
    for n in (10**k - 1, 10**k, 10**k + 1):
        assert arith.digit_count(n) == len(str(n))
    n = 10**k + 1
    assert arith.to_digits(n) == "1" + "0" * (k - 1) + "1"
    assert arith.from_digits("9" * k) == 10**k - 1


@given(bits=st.integers(min_value=1, max_value=80_000), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_random_conversions_match_int_and_str(bits, seed):
    n = random.Random(seed).getrandbits(bits)
    s = str(n)
    assert arith.digit_count(n) == len(s)
    assert arith.to_digits(n) == s
    assert arith.from_digits(s) == n


@pytest.mark.parametrize(
    "bad", ["", "+5", "-5", " 12", "12 ", "1_000", "٣", "1" * 5000 + " " + "2" * 5000]
)
def test_from_digits_accepts_ascii_digits_only(bad):
    assert arith.from_digits("0012") == 12
    with pytest.raises(ValueError):
        arith.from_digits(bad)
