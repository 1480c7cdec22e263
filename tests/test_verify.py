import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from champcfe import (
    CONFIRMED,
    DEFAULT_DIGIT_BUDGET,
    SciDecimal,
    VIOLATION,
    DigitBudgetError,
    DigitLocation,
    InsufficientTruthError,
    convergent_from_coefficients,
    digits_up_to,
    failure_tail,
    hwm_expansion,
    locate_position,
    measure_error,
    measure_ncd,
    numerator_for_hwm,
    verify_child,
    verify_hwm,
)
from champcfe import arith
from champcfe.arith import first_difference

HWM5 = (60_499_999_499, 490_050_000_000)


def long_divide(
    numerator: int,
    denominator: int,
    ndigits: int,
    max_digits: int = DEFAULT_DIGIT_BUDGET,
) -> str:
    """First ndigits fractional digits of numerator/denominator < 1 by exact
    integer division, truncated."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if not 0 <= numerator < denominator:
        raise ValueError("value must lie in [0, 1)")
    if ndigits < 1:
        raise ValueError("ndigits must be >= 1")
    if ndigits > max_digits:
        raise DigitBudgetError(requested=ndigits, budget=max_digits)
    q = numerator * arith.pow10(ndigits) // denominator
    return arith.to_digits(q).rjust(ndigits, "0")


class TestLongDivide:
    def test_examples(self):
        assert long_divide(10, 81, 12) == "123456790123"
        assert long_divide(1, 8, 3) == "125"
        assert long_divide(1, 8, 6) == "125000"

    def test_level5_matches_truth_through_187(self):
        truth = digits_up_to(200)
        digits = "0" + long_divide(*HWM5, 190)
        assert digits[:187] == truth.digits[:187]
        assert digits[187] != truth.digits[187]

    def test_preconditions(self):
        with pytest.raises(ValueError):
            long_divide(9, 8, 3)
        with pytest.raises(ValueError):
            long_divide(1, 8, 0)
        with pytest.raises(DigitBudgetError):
            long_divide(1, 8, 100, max_digits=50)


class TestMeasureNcd:
    def test_level4(self):
        ncd, loc = measure_ncd(10, 81, digits_up_to(100))
        assert ncd == 8
        assert loc == DigitLocation(8, 1)

    def test_level5(self, truth_80k):
        ncd, loc = measure_ncd(*HWM5, truth_80k)
        assert ncd == 187
        assert loc == DigitLocation(98, 2)

    def test_exact_prefix_has_no_mismatch(self):
        truth = digits_up_to(12)
        v = truth.as_scaled_integer()
        with pytest.raises(InsufficientTruthError):
            measure_ncd(v, 10**12, truth)


class TestMeasureError:
    def test_level5(self, truth_80k):
        err = measure_error(*HWM5, truth_80k, mantissa_digits=3)
        assert err.sign == +1
        assert err.exponent == -190
        assert err.digits == "910"
        assert err.round_to(2).digits == "91"

    def test_level6_rounding_matters(self, truth_80k):
        num, den, _ = hwm_expansion(6, truth_80k)
        err = measure_error(num, den, truth_80k, mantissa_digits=4)
        assert err.digits == "9009"  # raw leading digits
        assert str(err.round_to(3)) == "9.01E-2890"

    def test_child_error_is_negative(self, level8_terms):
        from champcfe import convergent_from_coefficients

        r = convergent_from_coefficients(level8_terms[:101])
        err = measure_error(r.numerator, r.denominator, digits_up_to(5650), 4)
        assert err.sign == -1
        assert err.exponent == -5590
        assert str(err.round_to(3)) == "-8.92E-5590"

    def test_monotone_refinement(self, truth_80k):
        # a short truth that passes the guard reads the same mantissa as one
        # about 80k digits longer
        for n, short in ((5, 300), (6, 3_000)):
            num, den, _ = hwm_expansion(n, truth_80k)
            a = measure_error(num, den, digits_up_to(short), mantissa_digits=6)
            assert a == measure_error(num, den, truth_80k, mantissa_digits=6)

    def test_insufficient_truth_names_requirement(self):
        with pytest.raises(InsufficientTruthError) as exc:
            measure_error(*HWM5, digits_up_to(200), mantissa_digits=3)
        assert exc.value.required == 190 + 3 + 10

    def test_insufficient_truth_requirement_converges(self):
        # far-too-short prefixes measure a truncation artifact, so the named
        # requirement is a lower bound; honoring it repeatedly terminates
        p = 150
        for _ in range(6):
            try:
                err = measure_error(*HWM5, digits_up_to(p), mantissa_digits=3)
                break
            except InsufficientTruthError as exc:
                assert exc.required > p
                p = exc.required
        else:
            pytest.fail("requirement did not converge")
        assert str(err.round_to(2)) == "9.1E-190"


class TestVerifyHwm:
    def test_level4_profile(self):
        p = verify_hwm(4)
        assert p.status == CONFIRMED
        assert p.coefficient_index == 4
        assert p.observed_ncd == p.predicted_ncd == 8
        assert p.first_fail == DigitLocation(8, 1)
        assert p.fails_as == 9
        assert p.denominator_digits == 2
        assert str(p.error_predicted) == "1.0E-9"
        assert p.next_hwm_length == 6
        assert p.total_coefficient_digits == 4
        assert p.c10_digits_used == 2

    def test_level5_profile(self):
        p = verify_hwm(5)
        assert p.status == CONFIRMED
        assert p.coefficient_index == 18
        assert p.observed_ncd == 187
        assert p.fails_as == 99
        assert p.next_hwm_length == 166
        assert p.total_coefficient_digits == 24
        assert p.c10_digits_used == 11

    def test_level6_tail_observed(self):
        p = verify_hwm(6, compute_error=False)
        tail_checks = [c for c in p.checks if c.field == "failure_tail"]
        assert tail_checks[0].observed == "9000001002"
        assert tail_checks[0].ok
        assert p.error_observed is None
        assert p.status == CONFIRMED

    def test_without_next_check(self):
        p = verify_hwm(5, check_next_hwm=False)
        assert p.next_hwm_length is None
        assert p.status == CONFIRMED
        assert not any(c.field == "hwm_length" for c in p.checks)

    def test_profile_serializes(self):
        p = verify_hwm(5)
        payload = p.as_dict()
        assert payload["profile_version"] == 1
        assert payload["status"] == CONFIRMED
        assert payload["error_observed"] == "9.10E-190"
        encoded = json.dumps(payload)
        assert json.loads(encoded) == payload

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            verify_hwm(3)


class TestVerifyChild:
    def test_child_101(self, level8_terms):
        p = verify_child(101, level8_terms)
        assert p.status == CONFIRMED
        assert p.follows_hwm == 6
        assert p.observed_ncd == 5589
        assert p.first_fail == DigitLocation(1674, 4)
        assert p.fails_as == 1673
        shape = p.denominator_shape
        assert shape.preamble == "3384585496849525154"
        assert shape.nines_count == 2681
        assert shape.penultimate == "664929355687517845"
        assert shape.zeroes_count == 7
        assert shape.total_length == 2725
        assert p.child_length == 140

    def test_child_357(self, level8_terms):
        p = verify_child(357, level8_terms)
        assert p.status == CONFIRMED
        assert p.follows_hwm == 7
        assert str(p.error_observed.round_to(4)) == "-8.992E-74890"
        assert p.first_fail.integer == 17199
        assert p.fails_as == 17198
        assert p.denominator_shape.lengths() == (26, 35974, 25, 186)
        assert p.child_length == 2468

    def test_non_child_index_reports_violations(self, level8_terms):
        p = verify_child(100, level8_terms)
        assert p.status == VIOLATION
        failed = {c.field for c in p.violations()}
        assert "coefficient_parity" in failed

    def test_child_serializes(self, level8_terms):
        payload = verify_child(101, level8_terms).as_dict()
        assert payload["kind"] == "child"
        assert payload["shape_lengths_predicted"] == [19, 2681, 18, 7]
        json.dumps(payload)

    def test_requires_a_preceding_maximum(self, level8_terms):
        with pytest.raises(ValueError):
            verify_child(3, level8_terms)


class TestViolationPathway:
    def test_profile_status_reflects_failed_checks(self):
        p = verify_hwm(4)
        assert p.status == CONFIRMED
        from champcfe.verify import FieldCheck

        p.checks.append(FieldCheck("synthetic", 1, 2, False))
        assert p.status == VIOLATION
        assert [c.field for c in p.violations()] == ["synthetic"]
        assert p.as_dict()["status"] == VIOLATION

    def test_falsified_prediction_is_reported_not_raised(self, monkeypatch):
        import champcfe.predict as predict

        real = predict.failing_integer
        monkeypatch.setattr(
            predict, "failing_integer", lambda n: (real(n)[0] + 1, real(n)[1])
        )
        p = verify_hwm(4, compute_error=False, check_next_hwm=False)
        assert p.status == VIOLATION
        failed = {c.field for c in p.violations()}
        assert failed == {"failing_integer"}


class TestNextLevelCheck:
    def test_runs_no_euclid_on_the_next_level(self, monkeypatch):
        import champcfe.cfe as cfe

        levels = []
        real = cfe.hwm_expansion
        monkeypatch.setattr(cfe, "hwm_expansion", lambda n, t: levels.append(n) or real(n, t))
        assert verify_hwm(7).status == CONFIRMED
        assert levels == [7]

    def test_pair_off_the_level_n_expansion_falls_back(self, monkeypatch, truth_80k):
        # moving the level-8 denominator two places leaves the level-7
        # terms behind; the full level-8 expansion, which verify_hwm ran for
        # every level before the cofactor check, gives index 162 two digits
        import dataclasses

        import champcfe.predict as predict

        real = predict.denominator_sci

        def shifted(m):
            sci = real(m)
            return dataclasses.replace(sci, exponent=sci.exponent + 2) if m == 8 else sci

        monkeypatch.setattr(predict, "denominator_sci", shifted)
        p = verify_hwm(7, compute_error=False)
        assert p.next_hwm_length == 2
        assert len(str(hwm_expansion(8, truth_80k)[2][p.coefficient_index])) == 2
        failed = {c.field: c.observed for c in p.violations()}
        assert failed == {"prefix_stability": False, "hwm_length": 2}

    @staticmethod
    def double_level7(monkeypatch, truth, shift8=0):
        """Double both halves of the level-7 pair, which keeps its value and
        its terms, and move the level-8 denominator shift8 places."""
        import dataclasses

        import champcfe.cfe as cfe
        import champcfe.predict as predict

        num = numerator_for_hwm(7, truth)
        real_sci, real_num = predict.denominator_sci, cfe._numerator

        def sci(m):
            s = real_sci(m)  # 499900005 doubles to 999800010, as many digits
            if m == 8:
                return dataclasses.replace(s, exponent=s.exponent + shift8)
            return dataclasses.replace(s, digits=str(2 * int(s.digits))) if m == 7 else s

        def doubled_num(m, prefix, parse):
            return parse(str(2 * num)) if m == 7 else real_num(m, prefix, parse)

        monkeypatch.setattr(predict, "denominator_sci", sci)
        monkeypatch.setattr(cfe, "_numerator", doubled_num)

    def test_pair_out_of_lowest_terms_steps_by_the_reduced_cofactors(
        self, monkeypatch, truth_80k
    ):
        # only the coprimality and the numerator's own digit patterns fail;
        # the cofactors of the terms do not fit the doubled pair, so the
        # length is read off the full level-8 expansion
        import champcfe.predict as predict

        self.double_level7(monkeypatch, truth_80k)
        p = verify_hwm(7, compute_error=False)
        assert {c.field for c in p.violations()} == {"lowest_terms", "numerator_tail"}
        assert p.next_hwm_length == predict.hwm_length(7)

    def test_pair_out_of_lowest_terms_and_off_the_expansion(self, monkeypatch, truth_80k):
        # both reasons to leave the cofactor jump at once
        self.double_level7(monkeypatch, truth_80k, shift8=2)
        p = verify_hwm(7, compute_error=False)
        failed = {c.field: c.observed for c in p.violations()}
        assert set(failed) == {"lowest_terms", "numerator_tail", "prefix_stability", "hwm_length"}
        assert failed["prefix_stability"] is False
        assert p.next_hwm_length == failed["hwm_length"] == 2


class TestConcurrency:
    def test_parallel_verifications_match_sequential(self):
        from concurrent.futures import ThreadPoolExecutor

        # levels 7 and 8 run the exact decimal context on megadigit operands
        levels = (4, 5, 6, 7, 8)
        sequential = {n: verify_hwm(n).as_dict() for n in levels}
        with ThreadPoolExecutor(max_workers=3) as pool:
            parallel = dict(zip(levels, pool.map(lambda n: verify_hwm(n).as_dict(), levels)))
        assert parallel == sequential

    def test_parallel_radix_conversions_match_str(self):
        # each conversion runs in its own decimal context, which is per thread
        from concurrent.futures import ThreadPoolExecutor

        from champcfe.arith import from_digits, to_digits

        values = [7**k for k in range(60_000, 60_008)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            strings = list(pool.map(to_digits, values))
            assert strings == [str(v) for v in values]
            assert list(pool.map(from_digits, strings)) == values


def expanded_observations(num, den, truth, window, tail_len, mantissa_digits):
    """Oracle for the residual-based observations: expand num/den over the
    whole window with long_divide, compare it with truth character by
    character, and measure the error in plain int arithmetic."""
    conv = "0" + long_divide(num, den, window, max_digits=window)
    pos = first_difference(conv, truth.digits[: window + 1])
    loc = locate_position(pos)
    start = pos - loc.digit_ordinal + 1
    fails_as = int(conv[start : start + len(str(loc.integer))])
    p = truth.last_position
    diff = num * 10**p - int(truth.digits) * den
    ad, dv = abs(diff), den * 10**p
    e0 = len(str(ad)) - len(str(dv))
    shift = mantissa_digits - e0
    t = str(ad * 10**shift // dv if shift >= 0 else ad // (dv * 10**-shift))
    error = SciDecimal(1 if diff > 0 else -1, t[:mantissa_digits], e0 + len(t) - 1 - mantissa_digits)
    return pos, loc, fails_as, conv[pos : pos + tail_len], error


class TestResidualObservations:
    """verify_hwm and verify_child read every digit-level observation off
    one residual; long_divide over the full window must agree."""

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_hwm_levels(self, n):
        profile = verify_hwm(n, check_next_hwm=False)
        truth = digits_up_to(verify_hwm_truth_length(n))
        num, den, _ = hwm_expansion(n, truth)
        tail = failure_tail(n)
        m = len(profile.error_predicted.digits) + 1
        pos, loc, fails_as, obs_tail, error = expanded_observations(
            num, den, truth, truth.last_position, len(tail), m
        )
        assert (profile.observed_ncd, profile.first_fail, profile.fails_as) == (
            pos,
            loc,
            fails_as,
        )
        assert next(c.observed for c in profile.checks if c.field == "failure_tail") == obs_tail
        assert profile.error_observed == error
        assert measure_ncd(num, den, truth) == (pos, loc)
        assert measure_error(num, den, truth, m) == error

    @pytest.mark.parametrize("k", [101, 357])
    def test_children_of_level8(self, k, level8_terms):
        profile = verify_child(k, level8_terms)
        r = convergent_from_coefficients(level8_terms[:k])
        exp = -profile.error_predicted.exponent
        m = len(profile.error_predicted.digits) + 1
        truth = digits_up_to(exp + m + 10)
        pos, loc, fails_as, _, error = expanded_observations(
            r.numerator, r.denominator, truth, min(exp + 32, truth.last_position), 0, m
        )
        assert (profile.observed_ncd, profile.first_fail, profile.fails_as) == (
            pos,
            loc,
            fails_as,
        )
        assert profile.error_observed == error

    def test_carry_and_borrow_cross_the_low_end(self):
        # the truth ends in the "99" of the integer 99, so one unit more
        # carries through both nines; values below the constant borrow
        truth = digits_up_to(189)
        v = truth.as_scaled_integer()
        cases = [(v + 1, 10**189), (v - 1, 10**189), (v + 10**150, 10**189), (1233, 10**4)]
        # residuals one unit below a multiple of den (0 and -2 den): the
        # carry is the floor, one below what truncation toward zero gives
        for c in (0, -2):
            den = pow(v + c, -1, 10**189)  # den·(v + c) = 1 mod 10^189
            num, rest = divmod(v * den + c * den - 1, 10**189)
            assert rest == 0 and num * 10**189 - v * den == c * den - 1
            cases.append((num, den))
        for num, den in cases:
            pos, loc, *_ = expanded_observations(num, den, truth, 189, 0, 3)
            assert measure_ncd(num, den, truth) == (pos, loc)


def verify_hwm_truth_length(n):
    """The prefix verify_hwm(n, check_next_hwm=False) generates."""
    from champcfe import error_profile, ncd, required_prefix_position

    tail, err = failure_tail(n), error_profile(n)
    return max(
        required_prefix_position(n),
        ncd(n) + len(tail) + 64,
        ncd(n) + n - 2 + len(err.digits) + 1 + 10,
    )


def run_fresh(code, env=os.environ, cwd=None):
    """Run code in a fresh interpreter that imports champcfe from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(env, PYTHONPATH=src + os.pathsep + env.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_tail_window_covers_every_other_truth_requirement():
    # verify_hwm sizes its truth by the failure-tail window alone
    from champcfe import error_profile, ncd, required_prefix_position
    from champcfe.verify import GUARD_DIGITS

    for n in range(4, 301):
        window = ncd(n) + len(failure_tail(n)) + 64
        assert window >= required_prefix_position(n)
        assert window >= required_prefix_position(n + 1)
        assert window >= ncd(n) + n - 2 + len(error_profile(n).digits) + 1 + GUARD_DIGITS


def test_library_leaves_decimal_context_alone():
    run_fresh(
        "import decimal, sys\n"
        "before = repr(decimal.getcontext())\n"
        "import champcfe\n"
        "from champcfe import arith\n"
        "sys.set_int_max_str_digits(0)  # for the str() oracle only\n"
        "assert arith.to_digits(7**200_000) == str(7**200_000)\n"
        "assert champcfe.verify_hwm(7, check_next_hwm=False).status == 'confirmed'\n"
        "assert repr(decimal.getcontext()) == before, (before, repr(decimal.getcontext()))\n"
    )


def test_library_works_under_the_default_int_str_cap(tmp_path):
    # every conversion the library makes stays under the interpreter's cap,
    # so importing champcfe need not lift it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONINTMAXSTRDIGITS"}
    run_fresh(
        "import sys\n"
        "cap = sys.get_int_max_str_digits()\n"
        "import champcfe\n"
        "from champcfe import arith, cli, read_coefficients, verify_child, verify_hwm\n"
        "assert verify_hwm(7, check_next_hwm=False).status == 'confirmed'\n"
        "assert cli.main(['compute', '--hwm', '8', '--out', 'c8.txt']) == 0\n"
        "with open('c8.txt') as fp:\n"
        "    terms = read_coefficients(fp)\n"
        "for k in (101, 357):  # 2,725- and 36,211-digit denominators\n"
        "    child = verify_child(k, terms)\n"
        "    assert child.status == 'confirmed'\n"
        "    shape = child.denominator_shape\n"
        "    assert len(arith.to_digits(shape.realize())) == shape.total_length\n"
        "assert shape.total_length > cap > 0, cap\n"
        "assert sys.get_int_max_str_digits() == cap, sys.get_int_max_str_digits()\n",
        env=env,
        cwd=tmp_path,
    )
