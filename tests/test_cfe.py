import io
import math
import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from champcfe import (
    PrecisionError,
    cfe_extract,
    convergent_from_coefficients,
    denominator,
    denominator_sci,
    digits_up_to,
    hwm_expansion,
    naive_cfe,
    longest_nines,
    nines_run,
    numerator_for_hwm,
    numerator_tail,
    read_coefficients,
    required_prefix_position,
    write_coefficients,
)
from champcfe import arith, cfe
from champcfe.arith import to_decimal, to_digits
from champcfe.cfe import coefficient_digit_lengths

# the coefficients of the convergent before HWM #5, verbatim
LEVEL5_TERMS = [0, 8, 9, 1, 149083, 1, 1, 1, 4, 1, 1, 1, 3, 4, 1, 1, 1, 15]


class TestNumerator:
    def test_level5_numerator(self):
        prefix = digits_up_to(10)
        assert numerator_for_hwm(5, prefix) == 60_499_999_499

    def test_level4_half_scale_identity(self):
        prefix = digits_up_to(1)
        assert numerator_for_hwm(4, prefix) == 10
        assert denominator(4) == 81

    def test_longer_prefix_is_truncated_to_the_required_digits(self):
        assert numerator_for_hwm(5, digits_up_to(5000)) == 60_499_999_499

    def test_insufficient_prefix_names_required_position(self):
        with pytest.raises(PrecisionError) as exc:
            numerator_for_hwm(6, digits_up_to(100))
        assert exc.value.required_position == required_prefix_position(6) == 190

    def test_denominator_is_its_mantissa_times_10_to_the_p_plus_2_minus_n(self):
        # numerator_for_hwm divides by 10**(n - 2) on the strength of this;
        # past level 8 the denominator is too long to build, so its exponent
        # is checked instead
        for n in range(5, 301):
            sci, p = denominator_sci(n), required_prefix_position(n)
            assert sci.exponent - (len(sci.digits) - 1) == p + 2 - n
            if n <= 8:
                assert denominator(n) == int(sci.digits) * 10 ** (p + 2 - n)

    def test_required_positions_match_published_digit_counts(self):
        # digit counts include the leading '0', hence the +1
        assert [required_prefix_position(n) + 1 for n in (4, 5, 6, 7, 8)] == [
            2,
            11,
            191,
            2891,
            38891,
        ]


class TestExtract:
    def test_level4_parity_split(self):
        assert cfe_extract(10, 81) == [0, 8, 10]
        assert hwm_expansion(4, digits_up_to(1)) == (10, 81, [0, 8, 9, 1])

    def test_level5_extraction_verbatim(self):
        assert cfe_extract(60_499_999_499, 490_050_000_000) == LEVEL5_TERMS
        assert hwm_expansion(5, digits_up_to(10))[2] == LEVEL5_TERMS

    def test_integer_input(self):
        assert cfe_extract(1, 1) == [1]
        assert cfe_extract(7, 1) == [7]

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            cfe_extract(1, 0)

    def test_common_factors_do_not_change_terms(self):
        assert cfe_extract(20, 162) == cfe_extract(10, 81)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_hwm_expansion_ends_on_an_odd_index(n, truth_80k):
    # the canonical expansion ends on an even index exactly at levels 4, 7, 8
    num, den, terms = hwm_expansion(n, truth_80k)
    assert len(terms) % 2 == 0
    assert convergent_from_coefficients(terms) == Fraction(num, den)
    canonical = cfe_extract(num, den)
    split = canonical[:-1] + [canonical[-1] - 1, 1]
    assert terms == (split if n in (4, 7, 8) else canonical)


class TestRebuild:
    def test_examples(self):
        assert convergent_from_coefficients([0, 8, 10]) == Fraction(10, 81)
        assert convergent_from_coefficients([0, 8, 9, 1]) == Fraction(10, 81)
        assert convergent_from_coefficients([0, 8]) == Fraction(1, 8)
        assert convergent_from_coefficients(LEVEL5_TERMS) == Fraction(
            60_499_999_499, 490_050_000_000
        )

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            convergent_from_coefficients([])
        for terms in ([0, 0, 3], [1, 0, 2]):  # a0 may be 0, no later term
            with pytest.raises(ValueError, match="after the first must be >= 1"):
                convergent_from_coefficients(terms)


def canonical_lists(max_length=40, max_term=10**6):
    middle = st.lists(
        st.integers(min_value=1, max_value=max_term), min_size=0, max_size=max_length
    )
    first = st.integers(min_value=0, max_value=max_term)
    last = st.integers(min_value=2, max_value=max_term)
    return st.tuples(first, middle, last).map(lambda t: [t[0], *t[1], t[2]])


@given(terms=canonical_lists())
@settings(max_examples=200)
def test_round_trip_list_to_rational_to_list(terms):
    r = convergent_from_coefficients(terms)
    assert cfe_extract(r.numerator, r.denominator) == terms


@given(
    num=st.integers(min_value=0, max_value=10**12),
    den=st.integers(min_value=1, max_value=10**12),
)
@settings(max_examples=200)
def test_round_trip_rational_to_list_to_rational(num, den):
    terms = cfe_extract(num, den)
    assert len(terms) == 1 or terms[-1] >= 2
    assert convergent_from_coefficients(terms) == Fraction(num, den)


def test_round_trip_long_random_lists():
    rng = random.Random(143533)
    for _ in range(3):
        terms = [0] + [rng.randint(1, 10**6) for _ in range(9_998)] + [rng.randint(2, 10**6)]
        r = convergent_from_coefficients(terms)
        assert cfe_extract(r.numerator, r.denominator) == terms


@given(
    num=st.integers(min_value=1, max_value=10**9),
    den=st.integers(min_value=1, max_value=10**9),
)
@settings(max_examples=200)
def test_extracted_convergents_are_lowest_terms(num, den):
    terms = cfe_extract(num, den)
    r = convergent_from_coefficients(terms)
    g = math.gcd(num, den)
    assert (r.numerator, r.denominator) == (num // g, den // g)


def near_powers():
    return st.integers(0, 30).flatmap(lambda e: st.integers(max(1, 10**e - 2), 10**e + 2))


def fraction_right_to_left(terms):
    x = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        x = t + 1 / x
    return x


@given(
    terms=st.tuples(
        st.one_of(st.just(0), st.integers(0, 10**6), near_powers()),
        st.lists(st.one_of(st.integers(1, 10**6), near_powers()), max_size=39),
    ).map(lambda t: [t[0], *t[1]])
)
@settings(max_examples=300)
def test_continuant_gives_the_convergent_and_the_one_before(terms):
    (p, _), (q, q_prev) = cfe._continuant(terms), cfe._continuant(terms[1:])
    x = fraction_right_to_left(terms)
    assert (p, q) == (x.numerator, x.denominator)
    assert q_prev == (fraction_right_to_left(terms[:-1]).denominator if len(terms) > 1 else 0)


def hwm_split(terms):
    """hwm_expansion's rule: an odd-length list ends Y-1, 1 in place of Y."""
    return terms[:-1] + [terms[-1] - 1, 1] if len(terms) % 2 else terms


@st.composite
def next_level_pairs(draw):
    """(terms, A, B, short): an hwm_expansion-style list and a pair A/B whose
    complete quotient after it is an integer, a power of ten or one of its
    neighbours, or a continued fraction (greater or less than 1); or A/B is
    the value of terms itself, or unrelated to it. A and B share a random
    common factor. With short, the Decimal operands are passed with their
    trailing zeros moved into the exponent, as verify_hwm passes them."""
    terms = hwm_split(draw(canonical_lists(max_length=12)))
    kind = draw(st.sampled_from(["integer", "power", "fraction", "itself", "unrelated"]))
    scale = draw(st.integers(1, 1000))
    short = draw(st.booleans())
    if kind == "unrelated":
        return terms, draw(st.integers(1, 10**40)), draw(st.integers(1, 10**40)), short
    if kind == "itself":
        x = convergent_from_coefficients(terms)
        return terms, x.numerator * scale, x.denominator * scale, short
    if kind == "integer":
        x = Fraction(draw(st.integers(1, 10**30)))
    elif kind == "power":
        x = Fraction(max(1, 10 ** draw(st.integers(0, 30)) + draw(st.sampled_from([-1, 0, 1]))))
    else:
        x = convergent_from_coefficients(draw(canonical_lists(max_length=8)))
    for t in reversed(terms):
        x = t + 1 / x
    return terms, x.numerator * scale, x.denominator * scale, short


def next_term_digits(terms, a, b, short=False):
    """cfe._next_term_digits on the cofactors of terms and the pair a/b."""
    (p, _), (q, q_prev) = cfe._continuant(terms), cfe._continuant(terms[1:])
    ops = [to_decimal(v) for v in (p, q, q_prev, a, b)]
    if short:
        ops = [v.normalize(arith.EXACT) for v in ops]
    return cfe._next_term_digits(*ops)


@given(case=next_level_pairs())
@settings(max_examples=400)
def test_next_term_digits_matches_the_full_expansion(case):
    # the cofactor jump against Euclid run from the start on A/B
    terms, a, b, short = case
    k = len(terms)
    full = hwm_split(cfe_extract(a, b))
    want = len(str(full[k])) if full[:k] == terms and len(full) > k else None
    assert next_term_digits(terms, a, b, short) == want


@pytest.mark.parametrize("n", [4, 5, 6, 7])
def test_next_term_digits_at_the_hwm_levels(n, truth_80k):
    # the operands verify_hwm passes: Decimal ceiling numerators, short-form
    # denominators, and q_prev from the continuant
    num, den, terms = hwm_expansion(n, truth_80k)
    num2, den2, following = hwm_expansion(n + 1, truth_80k)
    (p, q), (a, b) = cfe._short_pair(n, truth_80k), cfe._short_pair(n + 1, truth_80k)
    q_prev = to_decimal(cfe._continuant(terms[1:])[1])
    assert (p, q, a, b) == tuple(map(to_decimal, (num, den, num2, den2)))
    for m, short in ((n, q), (n + 1, b)):  # the mantissa digits times a power of ten
        assert short.as_tuple() == Decimal(str(denominator_sci(m))).as_tuple()
    assert following[: len(terms)] == terms
    assert cfe._next_term_digits(p, q, q_prev, a, b) == len(str(following[len(terms)]))


def test_next_term_digits_rejects_a_wrong_q_prev():
    # an exact division, so a cofactor that does not belong raises an
    # arithmetic error instead of a wrong length; a MemoryError, which an
    # inexact / raises under the exact context, would escape pytest.raises
    terms = hwm_split([0, 3, 7, 15, 1, 292])
    (p, _), (q, q_prev) = cfe._continuant(terms), cfe._continuant(terms[1:])
    x = 10**12 + 7 + Fraction(1, 3)  # the complete quotient after terms
    for t in reversed(terms):
        x = t + 1 / x
    a, b = (to_decimal(v) for v in (x.numerator, x.denominator))
    p, q = to_decimal(p), to_decimal(q)
    assert cfe._next_term_digits(p, q, to_decimal(q_prev), a, b) == 13
    for wrong in (q_prev + 1, q_prev - 1, 2 * q_prev):
        with pytest.raises(ArithmeticError):
            cfe._next_term_digits(p, q, to_decimal(wrong), a, b)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_decimal_numerator_equals_the_int_one(n, truth_80k):
    num, den = cfe._short_pair(n, truth_80k)
    assert (num, den) == (to_decimal(numerator_for_hwm(n, truth_80k)), to_decimal(denominator(n)))
    assert num.as_tuple().exponent == 0


def test_recurrence_tells_lowest_terms(truth_80k):
    # the continuant's q == den stands in for gcd(num, den) == 1
    pairs = [hwm_expansion(n, truth_80k) for n in range(4, 9)]
    num, den, _ = pairs[2]
    for g in (2, 3, 10, 7**20):  # level 6 scaled out of lowest terms
        pairs.append((g * num, g * den, hwm_split(cfe_extract(g * num, g * den))))
    coprime = [math.gcd(num, den) == 1 for num, den, _ in pairs]
    assert coprime == [True] * 5 + [False] * 4
    assert [cfe._continuant(terms[1:])[0] == den for _, den, terms in pairs] == coprime


class TestNaive:
    def test_truncation_method_diverges_at_term_four(self):
        result = naive_cfe(digits_up_to(10))
        assert result.terms[:5] == [0, 8, 9, 1, 148921]
        assert result.trusted_terms == 4

    def test_single_digit(self):
        result = naive_cfe(digits_up_to(1))
        assert result.terms == [0, 10]
        assert result.trusted_terms == 1

    def test_fourth_term_correct_via_convergent_method(self):
        terms = cfe_extract(60_499_999_499, 490_050_000_000)
        assert terms[4] == 149083

    def test_first_wrong_term_against_level6_truth(self):
        # with 11 more digits the divergence point moves past term 4
        wide = naive_cfe(digits_up_to(21))
        assert wide.terms[: wide.trusted_terms][:5] == [0, 8, 9, 1, 149083]

    def test_requires_fractional_digits(self):
        with pytest.raises(ValueError):
            naive_cfe(digits_up_to(0))


class TestNumeratorTails:
    def test_nines_runs_and_tails(self, truth_80k):
        nums = {n: to_digits(numerator_for_hwm(n, truth_80k)) for n in (5, 6, 7, 8)}
        assert len(longest_nines(nums[5])[0]) == nines_run(5) == 5
        assert numerator_tail(5) is None  # rule starts at level 6
        assert numerator_tail(6) == "409" and nums[6].endswith("409")
        assert numerator_tail(7) == "4009" and nums[7].endswith("4009")
        assert len(longest_nines(nums[7])[0]) == nines_run(7) == 173
        assert numerator_tail(8) == "40009" and nums[8].endswith("40009")
        assert nines_run(8) is None

    def test_predictors_start_at_level4(self):
        assert numerator_tail(4) is None and nines_run(4) is None
        with pytest.raises(ValueError):
            numerator_tail(3)
        with pytest.raises(ValueError):
            nines_run(3)

    def test_longest_nines_takes_the_first_of_the_longest(self):
        m = longest_nines("1991299939992")
        assert (m.start(), m[0]) == (5, "999")
        assert longest_nines("12345") is None


class TestCoefficientFiles:
    def test_round_trip_and_exact_bytes(self, tmp_path):
        path = tmp_path / "coeffs.txt"
        with open(path, "w", newline="") as fp:
            write_coefficients(LEVEL5_TERMS, fp)
        raw = path.read_bytes()
        assert raw == b"\n".join(str(t).encode() for t in LEVEL5_TERMS) + b"\n"
        assert b"\r" not in raw
        with open(path) as fp:
            assert read_coefficients(fp) == LEVEL5_TERMS

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            read_coefficients(io.StringIO("12\nx9\n"))
        with pytest.raises(ValueError):
            read_coefficients(io.StringIO("12\n\n9\n"))
        with pytest.raises(ValueError):
            read_coefficients(io.StringIO(""))

    @pytest.mark.parametrize("line", ["\u0663", "1\u0663", "0008", "00", "+7", "7 ", "1_0"])
    def test_grammar_is_strict_ascii_without_leading_zeros(self, line):
        for reader in (read_coefficients, coefficient_digit_lengths):
            with pytest.raises(ValueError, match="line 2"):
                reader(io.StringIO(f"0\n{line}\n"))

    def test_zero_is_a_coefficient(self):
        assert read_coefficients(io.StringIO("0\n10\n")) == [0, 10]
        assert coefficient_digit_lengths(io.StringIO("0\n10\n")) == [1, 2]
