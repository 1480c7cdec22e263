import io
import math
import random
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
    hwm_convergent,
    naive_cfe,
    longest_nines,
    nines_run,
    numerator_for_hwm,
    numerator_tail,
    read_coefficients,
    required_prefix_position,
    write_coefficients,
)
from champcfe.arith import to_digits
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
        assert cfe_extract(10, 81, final_index_parity="odd") == [0, 8, 9, 1]

    def test_level5_extraction_verbatim(self):
        terms = cfe_extract(60_499_999_499, 490_050_000_000, final_index_parity="odd")
        assert terms == LEVEL5_TERMS

    def test_integer_input(self):
        assert cfe_extract(1, 1) == [1]
        assert cfe_extract(7, 1) == [7]

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValueError):
            cfe_extract(1, 0)

    def test_parity_already_satisfied_is_untouched(self):
        assert cfe_extract(1, 8, final_index_parity="odd") == [0, 8]
        assert cfe_extract(10, 81, final_index_parity="even") == [0, 8, 10]

    def test_split_of_a_lone_unit_term(self):
        assert cfe_extract(1, 1, final_index_parity="odd") == [0, 1]

    def test_common_factors_do_not_change_terms(self):
        assert cfe_extract(20, 162) == cfe_extract(10, 81)


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
        with pytest.raises(ValueError):
            convergent_from_coefficients([0, 0, 3])


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
        terms = cfe_extract(60_499_999_499, 490_050_000_000, final_index_parity="odd")
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
        nums = {n: to_digits(hwm_convergent(n, truth_80k)[0]) for n in (5, 6, 7, 8)}
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
