import io
import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
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

    def test_short_prefix_names_the_requested_level(self):
        # hwm_expansion builds level n's pair before those of the levels
        # below it, so the error names level 8's position, not level 6's
        with pytest.raises(PrecisionError) as exc:
            hwm_expansion(8, digits_up_to(100))
        assert exc.value.required_position == required_prefix_position(8)
        with pytest.raises(ValueError):
            hwm_expansion(3, digits_up_to(100))

    def test_denominator_is_its_mantissa_times_10_to_the_p_plus_2_minus_n(self):
        # numerator_for_hwm divides by 10**(n - 2) on the strength of this;
        # past level 8 the denominator is too long to build, so its exponent
        # is checked instead
        for n in range(5, 301):
            sci, p = denominator_sci(n), required_prefix_position(n)
            assert sci.exponent - (len(sci.digits) - 1) == p + 2 - n
            if n <= 8:
                assert denominator(n) == int(sci.digits) * 10 ** (p + 2 - n)

    @given(
        n=st.integers(4, 14),
        c=st.integers(0, 10**40),
        nudge=st.sampled_from([-1, 0, 1]),
        multiple=st.booleans(),
    )
    @settings(max_examples=300)
    def test_shifted_ceiling_matches_divmod(self, n, c, nudge, multiple):
        # the numerator from level 5 on is ceil(m*v / 10**(n - 2)), and at
        # level 4 2*ceil(81*v / 20); with multiple, v makes m*v an exact
        # multiple of the divisor, give or take one
        m = int(denominator_sci(n).digits)
        scale = 20 if n == 4 else 10 ** (n - 2)
        v = c * (scale // math.gcd(m, scale)) if multiple else c
        v = max(v + nudge, 0)
        q, r = divmod(m * v, scale)
        got = cfe._short_pair(n, required_prefix_position(n), Decimal(v))[0]
        assert str(got) == str((q + (r > 0)) * (2 if n == 4 else 1))

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
        # a0 may be 0, no later term; a last 0 comes first in reversed order
        for terms in ([0, 0, 3], [1, 0, 2], [3, 0]):
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


def word_edges():
    """Terms at the continuant's one-word bound, where a run must flush."""
    return st.sampled_from([cfe._WORD - 1, cfe._WORD, cfe._WORD + 1])


@st.composite
def continuant_lists(draw):
    """Term lists for the batched continuant: a first term that may be 0,
    then single terms (small, near a power of ten, at the one-word bound or
    up to 40 digits) and runs of up to 200 ones, whose continuant crosses
    the bound after 87; or the empty list."""
    if draw(st.integers(0, 19)) == 0:
        return []
    first = draw(st.one_of(st.just(0), st.integers(0, 10**6), word_edges()))
    single = st.one_of(
        st.integers(1, 10**6), near_powers(), word_edges(), st.integers(1, 10**40)
    ).map(lambda t: [t])
    ones = st.integers(1, 200).map(lambda n: [1] * n)
    chunks = draw(st.lists(st.one_of(single, ones), max_size=12))
    return [first] + [t for chunk in chunks for t in chunk]


@given(terms=continuant_lists(), as_decimals=st.booleans())
@settings(max_examples=400)
def test_batched_continuant_matches_the_recurrence(terms, as_decimals, continuant):
    # the one-word batches against the plain recurrence, forward and on the
    # reversed single pass; Decimal terms give Decimals with exponent 0
    want = continuant(terms)
    pair = (want[0], continuant(terms[1:])[0]) if terms else None
    with localcontext(arith.EXACT):
        seq = [Decimal(t) for t in terms] if as_decimals else terms
        got = cfe._continuant(seq)
        got_pair = cfe._continuant(seq[::-1]) if terms else None
    assert got == want
    assert got_pair == pair
    if as_decimals:
        assert [str(v) for v in got + (got_pair or ())] == [str(v) for v in want + (pair or ())]


@st.composite
def planted_lists(draw):
    """Runs of up to 30 short terms with 1-3 long ones planted among them:
    10^3 to 10^5 digits, or in arith._product's window (1,900 to 4,864),
    and sometimes one of 10^5 digits among others of 10^4 at most, longer
    than half the total. Long terms are random ints of about that many
    digits."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    run = st.lists(st.one_of(st.integers(1, 9), st.integers(1, 10**40)), max_size=30)
    sizes = st.one_of(st.integers(1000, 100_000), st.integers(1900, 4864))
    planted = draw(st.lists(sizes, min_size=1, max_size=3))
    if draw(st.booleans()):
        planted = [100_000] + [min(s, 10_000) for s in planted[1:]]
    seq = [draw(st.integers(0, 9))] + draw(run)
    for size in planted:
        at = draw(st.integers(0, len(seq)))
        seq[at:at] = [rng.getrandbits(size * 10 // 3) | 1] + draw(run)
    return seq


# a long last term leaves the split's right side empty: at the top, and in
# the matrix call for the terms after a long first term; reversed, each
# list also runs the other way round
_LONG_LAST = [3, 1, 4, 1, 5, 10**3000 + 7]
_LONG_FIRST_AND_LAST = [10**3000 + 3, 2, 7, 10**1000 + 9]
_LONG_FIRST = [10**3000 + 1, 1, 2, 3, 10**40 + 1]


@given(
    terms=planted_lists(),
    leaf=st.sampled_from([1, 2000, 30_000, 100_000]),
    as_decimals=st.booleans(),
)
@example(terms=_LONG_LAST, leaf=1000, as_decimals=False)
@example(terms=_LONG_LAST, leaf=1000, as_decimals=True)
@example(terms=_LONG_FIRST_AND_LAST, leaf=500, as_decimals=False)
@example(terms=_LONG_FIRST_AND_LAST, leaf=500, as_decimals=True)
@example(terms=_LONG_FIRST, leaf=1000, as_decimals=False)
@example(terms=_LONG_FIRST, leaf=1000, as_decimals=True)
@settings(max_examples=30, deadline=None)
def test_split_continuant_matches_the_recurrence(terms, leaf, as_decimals, continuant):
    # a small leaf makes the split run at test scale; the Decimal oracle is
    # the plain recurrence on libmpdec's own products, not arith._product's
    with pytest.MonkeyPatch.context() as mp, localcontext(arith.EXACT):
        mp.setattr(cfe, "_LEAF", leaf)
        seq = [to_decimal(t) for t in terms] if as_decimals else terms
        for s in (seq, seq[::-1]):
            # equal values of one type, and Decimals with exponent 0: equal
            # strings, without str() of 100,000-digit ints, which is quadratic
            got, want = cfe._continuant(s), continuant(s)
            assert got == want
            assert [type(v) for v in got] == [type(v) for v in want]
            assert all(v.as_tuple().exponent == 0 for v in got if isinstance(v, Decimal))


@given(
    short=st.lists(st.integers(1, 10**40), max_size=30),
    at=st.integers(0, 30),
    extra=st.integers(19, 3000),
    leaf=st.sampled_from([1, 2000, 100_000]),
)
@settings(max_examples=30, deadline=None)
def test_a_term_longer_than_the_rest_meets_one_product(short, at, extra, leaf):
    # the split falls at such a term, and _continuant asks _split for one
    # row: that row times the term is its only product; both rows would
    # take it into two
    with localcontext(arith.EXACT):
        long = Decimal(1).scaleb(sum(len(str(t)) for t in short) + extra) + 1
        seq = [Decimal(t) for t in short]
    seq.insert(at, long)
    product, hits = arith._product, []

    def counted(a, b):
        hits.append(a is long or b is long)
        return product(a, b)

    with pytest.MonkeyPatch.context() as mp, localcontext(arith.EXACT):
        mp.setattr(cfe, "_LEAF", leaf)
        mp.setattr(arith, "_product", counted)
        cfe._continuant(seq)
    assert sum(hits) == 1


@st.composite
def lehmer_pairs(draw):
    """(a, b) for the Lehmer loop: a rational from a term list with planted
    40-digit quotients and powers of ten (and their neighbours), times a
    common factor; or a random pair whose larger operand has 37 to 39
    digits, about the digits a batch reads."""
    if draw(st.booleans()):
        digits = draw(st.integers(37, 39))
        a = draw(st.integers(10 ** (digits - 1), 10**digits - 1))
        return a, draw(st.integers(1, a))
    terms = [draw(st.integers(0, 9))] + draw(
        st.lists(
            st.one_of(
                st.integers(1, 50),
                st.integers(10**39, 10**40 - 1),
                st.integers(0, 45).map(lambda e: 10**e),
                near_powers(),
            ),
            max_size=40,
        )
    )
    x = convergent_from_coefficients(terms)
    scale = draw(st.one_of(st.just(1), st.integers(2, 10**45)))
    return x.numerator * scale, x.denominator * scale


@given(pair=lehmer_pairs())
@settings(max_examples=500)
def test_lehmer_quotients_match_plain_euclid(pair):
    a, b = pair
    with localcontext(arith.EXACT):
        got = cfe._lehmer_quotients(Decimal(a), Decimal(b))
    assert [str(q) for q in got] == [str(q) for q in cfe_extract(a, b)]


def test_lehmer_quotients_on_short_form_and_long_operands():
    # a short-form denominator, as _hwm_chain restarts on one, and operands
    # of thousands of digits, where the batches carry nearly every step; then
    # the HWM term's shape, a long quotient by 15 significant digits times a
    # power of ten. Each divisor is held in short form and at exponent 0.
    rng = random.Random(38)
    cases = [(rng.randrange(10**3000), rng.randrange(1, 10**2990), 40) for _ in range(5)]
    for s in (1, 40, 2885):
        b = rng.randrange(10**14, 10**15)
        cases.append((rng.randrange(10**3000) * b * 10**s + rng.randrange(b * 10**s), b, s))
    for a, b, s in cases:
        want = [str(q) for q in cfe_extract(a, b * 10**s)]
        with localcontext(arith.EXACT):
            short = Decimal(b).scaleb(s)
            for held in (short, short.quantize(1)):
                got = cfe._lehmer_quotients(Decimal(a), held)
                assert [str(q) for q in got] == want
                assert all(q.same_quantum(Decimal(1)) for q in got)


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
def test_next_term_digits_at_the_hwm_levels(n, truth_80k, int_expansion):
    # the operands verify_hwm passes: Decimal ceiling numerators, short-form
    # denominators, and q_prev from the continuant
    num, den, terms = int_expansion(n, truth_80k)
    num2, den2, following = int_expansion(n + 1, truth_80k)
    value, last = Decimal(truth_80k.digits), truth_80k.last_position
    (p, q), (a, b) = (cfe._short_pair(m, last, value) for m in (n, n + 1))
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


@st.composite
def split_rationals(draw):
    """(terms, A, B, short): a random rational A/B and its expansion's first k
    terms, k even and 0 included. In some draws a quotient is planted at
    index k (1, near a power of ten, or up to 40 digits; there the list may
    end), A and B share a common factor, or the last of terms is off by one.
    short is as in next_level_pairs."""
    full = draw(canonical_lists(max_length=16))
    k = 2 * draw(st.integers(0, len(full) // 2))
    if k < len(full) and draw(st.booleans()):
        full[k] = draw(st.one_of(st.just(1), near_powers(), st.integers(2, 10**40)))
        if draw(st.booleans()):
            full = full[: k + 1]
    x = convergent_from_coefficients(full)
    scale = draw(st.one_of(st.just(1), st.integers(2, 10**12)))
    terms = full[:k]
    if terms and draw(st.integers(0, 3)) == 0:
        terms[-1] += 1
    return terms, x.numerator * scale, x.denominator * scale, draw(st.booleans())


def chain_step(terms, a, b, short=False):
    """One step of cfe._hwm_chain from the cofactors of terms to the pair
    a/b: the jump, then Euclid on the rest; Euclid from the start when terms
    is empty."""
    (p, _), (q, q_prev) = cfe._continuant(terms), cfe._continuant(terms[1:])
    ops = [to_decimal(v) for v in (p, q, q_prev, a, b)]
    if short:
        ops = [v.normalize(arith.EXACT) for v in ops]
    p, q, q_prev, a, b = ops
    if not terms:
        return cfe._extend(a, b, Decimal(0), b)
    pair = cfe._remainder_pair(p, q, q_prev, a, b)
    return pair and cfe._extend(*pair, q, b)


@given(case=split_rationals())
@settings(max_examples=400)
def test_chain_step_matches_euclid_from_the_start(case, continuant):
    # the tail, the q_prev of the continuant over every term and the gcd
    # verdict, or a failure wherever the expansion does not continue terms
    terms, a, b, short = case
    k = len(terms)
    full = hwm_split(cfe_extract(a, b))
    got = chain_step(terms, a, b, short)
    if full[:k] != terms or len(full) == k:
        assert got is None
    else:
        tail, q_prev, coprime = got
        assert tail == full[k:]
        assert q_prev == continuant(full[1:])[1]
        assert coprime == (math.gcd(a, b) == 1)


def test_level_chain_matches_the_int_expansion(truth_80k, int_expansion, continuant):
    # the chain as Decimal digit strings, and hwm_expansion as ints, against
    # the int oracle
    value, last = Decimal(truth_80k.digits), truth_80k.last_position
    for n in range(4, 9):
        (a, b), terms, q_prev, coprime = cfe._hwm_chain(n, last, value)
        num, den, want = int_expansion(n, truth_80k)
        assert (a, b) == cfe._short_pair(n, last, value)
        digits = [to_digits(t) for t in want]
        assert [str(t) for t in terms] == digits
        assert str(q_prev) == to_digits(continuant(want[1:])[1])
        assert coprime
        assert [t.adjusted() + 1 for t in terms] == [len(s) for s in digits]
        assert hwm_expansion(n, truth_80k) == (num, den, want)


@pytest.mark.parametrize("perturb", ["double", "shift"])
def test_level_chain_restarts_off_the_chain(perturb, monkeypatch, truth_80k, continuant):
    # level 6 doubled (out of lowest terms: level 7 restarts) or with its
    # denominator moved two places (off level 5's terms: level 6 restarts);
    # every later level still gives Euclid's terms, q_prev and gcd verdict
    value, last = Decimal(truth_80k.digits), truth_80k.last_position
    real = cfe._short_pair

    def pair(m, p, value):
        a, b = real(m, p, value)
        if m != 6:
            return a, b
        with localcontext(arith.EXACT):  # the default context rounds to 28 digits
            return (2 * a, 2 * b) if perturb == "double" else (a, b.scaleb(2))

    monkeypatch.setattr(cfe, "_short_pair", pair)
    for n in range(6, 9):
        a, b = (int(v) for v in pair(n, last, value))
        want = hwm_split(cfe_extract(a, b))
        assert cfe._hwm_chain(n, last, value)[1:] == (
            want,
            continuant(want[1:])[1],
            math.gcd(a, b) == 1,
        )


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_decimal_numerator_equals_the_int_one(n, truth_80k, int_expansion):
    num, den = cfe._short_pair(n, truth_80k.last_position, Decimal(truth_80k.digits))
    want_num, want_den, _ = int_expansion(n, truth_80k)
    assert (str(num), den) == (to_digits(want_num), to_decimal(want_den))
    assert num.as_tuple().exponent == 0
    assert numerator_for_hwm(n, truth_80k) == want_num


def test_recurrence_tells_lowest_terms(truth_80k, continuant):
    # the continuant's q == den stands in for gcd(num, den) == 1
    pairs = [hwm_expansion(n, truth_80k) for n in range(4, 9)]
    num, den, _ = pairs[2]
    for g in (2, 3, 10, 7**20):  # level 6 scaled out of lowest terms
        pairs.append((g * num, g * den, hwm_split(cfe_extract(g * num, g * den))))
    coprime = [math.gcd(num, den) == 1 for num, den, _ in pairs]
    assert coprime == [True] * 5 + [False] * 4
    assert [continuant(terms[1:])[0] == den for _, den, terms in pairs] == coprime


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

    @given(s=st.text(alphabet="99990189", max_size=80))
    @settings(max_examples=500)
    def test_longest_nines_matches_every_run_scanned(self, s):
        # the galloping search against max() over every run of nines
        want = max(re.finditer("9+", s), key=lambda m: m.end() - m.start(), default=None)
        got = longest_nines(s)
        assert (got and (got.span(), got[0])) == (want and (want.span(), want[0]))


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

    @given(
        lines=st.lists(st.text("0019", max_size=3) | st.text("019\r +٣", max_size=3), max_size=5),
        end=st.sampled_from(["", "\n", "\n\n", "\r\n"]),
    )
    @settings(max_examples=500)
    def test_one_read_matches_the_line_by_line_reader(self, lines, end):
        # the oracle iterates a newline="" stream, as classify and child open
        # their file, which ends a line at LF, CRLF or a bare CR
        def line_by_line(fp):
            read = []
            for lineno, line in enumerate(fp):
                s = line.rstrip("\n")
                if not (s.isascii() and s.isdigit()) or (s[0] == "0" and len(s) > 1):
                    raise ValueError(f"line {lineno + 1}: not a decimal coefficient: {s!r}")
                read.append(s)
            if not read:
                raise ValueError("empty coefficient file")
            return read

        def outcome(reader):
            try:
                return reader(io.StringIO("\n".join(lines) + end, newline=""))
            except ValueError as exc:
                return str(exc)

        assert outcome(cfe._coefficient_lines) == outcome(line_by_line)
