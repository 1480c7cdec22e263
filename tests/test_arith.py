import decimal
import gc
import random
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from champcfe import arith


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
        assert_exact_decimal(n, s)


@pytest.mark.parametrize("k", [1, 2, 9, 300, 2999, 3000, 3001, 3010, 3011, 6021, 10**4, 30_103])
def test_powers_of_ten_and_neighbours(k):
    assert arith.pow10(k) == 10**k
    for n in (10**k - 1, 10**k, 10**k + 1):
        s = str(n)
        assert arith.to_digits(n) == s
        assert arith.from_digits(s) == n
        assert_exact_decimal(n, s)


def assert_exact_decimal(n, s):
    """to_decimal(±n) is Decimal(±s), with exponent 0 so its str() is s."""
    d = arith.to_decimal(n)
    assert d == Decimal(s) and d.as_tuple().exponent == 0 and str(d) == s
    assert arith.to_decimal(-n) == Decimal("-" + s)


def test_exact_context_traps_rounding_and_division_by_zero():
    with decimal.localcontext(arith.EXACT):
        assert Decimal(10) / 4 == Decimal("2.5")  # an exact quotient passes
        with pytest.raises(decimal.DivisionByZero):
            Decimal(1) / 0
        with pytest.raises(decimal.Inexact):
            Decimal("1.5").to_integral_exact()
        # libmpdec fails at once on 1/3: it cannot allocate MAX_PREC digits
        with pytest.raises((decimal.Inexact, MemoryError)):
            Decimal(1) / 3
        with pytest.raises(decimal.Inexact):
            Decimal(f"9E+{decimal.MAX_EMAX}") * 10


def test_powers_of_ten_at_one_hundred_thousand_digits():
    k = 10**5
    n = 10**k + 1
    assert arith.to_digits(n) == "1" + "0" * (k - 1) + "1"
    assert arith.from_digits("9" * k) == 10**k - 1


def test_conversions_leave_no_reference_cycles():
    # a cycle would keep each converted operand alive until a full collection
    s = "7" * (4 * LEAF + 7)
    gc.collect()
    assert arith.to_digits(arith.from_digits(s)) == s
    assert gc.collect() == 0


@given(bits=st.integers(min_value=1, max_value=80_000), seed=st.integers(0, 2**32))
@settings(max_examples=40, deadline=None)
def test_random_conversions_match_int_and_str(bits, seed):
    n = random.Random(seed).getrandbits(bits)
    s = str(n)
    assert arith.to_digits(n) == s
    assert arith.from_digits(s) == n


@pytest.mark.parametrize(
    "bad", ["", "+5", "-5", " 12", "12 ", "1_000", "٣", "1" * 5000 + " " + "2" * 5000]
)
def test_from_digits_accepts_ascii_digits_only(bad):
    assert arith.from_digits("0012") == 12
    with pytest.raises(ValueError):
        arith.from_digits(bad)


# _product's window: libmpdec multiplies schoolbook while the shorter factor
# has at most 256 words of 19 digits (4,864 digits); _product pads it past
# that from 100 words (1,900 digits) on, where the padding starts to pay
WINDOW_EDGES = [1500, 1900, 1901, 4864, 4865]


@st.composite
def integral_decimals(draw, sizes):
    """A signed integral Decimal with exponent 0 of a drawn digit count,
    whose coefficient may end in zeros."""
    n = draw(sizes)
    rng = random.Random(draw(st.integers(0, 2**32)))
    s = rng.choice("123456789") + "".join(rng.choices("0123456789", k=n - 1))
    zeros = draw(st.sampled_from([0, 1, n // 2, n - 1]))
    return Decimal(draw(st.sampled_from(["", "-"])) + s[: n - zeros] + "0" * zeros)


SHORT_SIDE = st.one_of(
    st.sampled_from([Decimal(0), Decimal(1), Decimal(-1)]),
    integral_decimals(
        st.one_of(
            st.integers(1, 6000),
            st.sampled_from(WINDOW_EDGES).flatmap(lambda e: st.integers(e - 2, e + 2)),
        )
    ),
)
LONG_SIDE = integral_decimals(st.one_of(st.integers(4865, 60_000), st.just(4865)))


@given(a=SHORT_SIDE, b=LONG_SIDE, swap=st.booleans())
@settings(max_examples=80, deadline=None)
def test_product_is_the_exact_product_in_any_context(a, b, swap):
    if swap:
        a, b = b, a
    with decimal.localcontext(arith.EXACT):
        want = a * b
        got = arith._product(a, b)
    with decimal.localcontext() as ctx:
        ctx.prec = 28  # a caller's default context must not round it
        got_28 = arith._product(a, b)
    # str() shows any exponent, so equal strings prove exponent 0
    assert got == got_28 == want
    assert str(got) == str(got_28) == str(want)


@st.composite
def near_multiples(draw):
    """(a, b) with b = B * 10**s, held at exponent s or at exponent 0, and
    a = q*b + r at exponent 0 for a quotient of 1 to 200 times B's digits
    and r in {0, 1, b - 1}: the near multiples where a floor that is one
    off would show. An exact multiple may be held with its trailing zeros
    as exponent, as Euclid meets a short-form remainder as a dividend."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = draw(st.integers(1, 40))
    B = Decimal(rng.randrange(10 ** (n - 1), 10**n))
    s = draw(st.one_of(st.integers(0, 3000), st.sampled_from([0, 1, 2, 19, 38, 3000])))
    length = n * draw(st.integers(1, 200))
    q = Decimal(rng.randrange(10 ** (length - 1), 10**length))
    with decimal.localcontext(arith.EXACT):
        b = B.scaleb(s)
        r = draw(st.sampled_from([Decimal(0), Decimal(1), b - 1]))
        a = (q * b + r).quantize(1)
        if not r and draw(st.booleans()):
            a = a.normalize()
        if draw(st.booleans()):
            b = b.quantize(1)
    return a, b


@given(pair=near_multiples())
@settings(max_examples=300, deadline=None)
def test_divmod_matches_plain_divmod_with_exponent_0(pair):
    a, b = pair
    with decimal.localcontext(arith.EXACT):
        want = divmod(a, b)
    got = arith._divmod(a, b)
    assert got == want
    # divmod leaves r at the smaller exponent of a and b; a split, at 0
    if a.same_quantum(Decimal(1)) or a.adjusted() - b.adjusted() >= arith._LONG_QUOTIENT:
        assert all(v.same_quantum(Decimal(1)) for v in got)
