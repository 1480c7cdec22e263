"""The deepest verification levels.

Levels 9 and 10 run in the default tier. Level 9 (its verification in
about 0.05 s) reproduces the published NCD 5,888,883 and error
9.00001E-5,888,890, plus the level-10 jump that exposes the
4,911,098-digit coefficient, matches the level chain and hwm_expansion
against the int oracle, and confirms the child at coefficient 1221.
Level 10's full verification, on 68.9 million constant digits, takes
about 1 s: its chain divides the 4.9 M-digit HWM #9 term by the short
form of its divisor. Marked deep, and excluded by default: the full
verification of level 11, on 788.9 million constant digits, the
level-10 coefficients computed through
hwm_expansion, which reproduce the published generation table below index 4,838, the file
`compute --hwm 10 --deep` writes, certified by its continuants to be the
expansion of the predicted pair and then read back to verify the child
after HWM #9 through the CLI, and one `compute --hwm 11 --deep` run,
whose file must be the recorded one, certified by its continuants to
be the expansion of the predicted pair, whose lengths reproduce the
published generation table below index 13,522, whose numerator
carries the published nine-runs, and which, read back, verifies the
child after HWM #10 through the CLI.
Run them with `pytest -m deep -v -s`.
"""

import contextlib
import csv
import hashlib
import io
import json
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

from champcfe import (
    DigitLocation,
    classify,
    digits_up_to,
    hwm_expansion,
    required_prefix_position,
    verify_child,
    verify_hwm,
    write_coefficients,
)
from champcfe import cfe
from champcfe.arith import EXACT, to_digits
from champcfe.cfe import coefficient_digit_lengths
from champcfe.cli import main
from champcfe.predict import denominator_sci

# the coefficient files that `compute --hwm 10 --deep` and `--hwm 11` write
LEVEL10_SHA256 = "702547412c524b410ce1a9315b16eb5429804cb1b5b1f0e29eae2377ed417013"
LEVEL11_SHA256 = "eaebe44ce137980721d325f2a1f7d33509a535c0f2ab8f47e4739606b1954a83"


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


def test_level9_chain_matches_the_int_expansion(level9, int_expansion, continuant):
    # digit strings against digit strings and ints against ints: Decimal ==
    # int converts the int, quadratically, on every long term
    truth, expanded = level9
    want = int_expansion(9, truth)[2]
    assert expanded == want
    value = Decimal(truth.digits)
    _, terms, q_prev, coprime = cfe._hwm_chain(9, truth.last_position, value)
    assert [str(t) for t in terms] == [to_digits(t) for t in want]
    assert coprime
    assert str(q_prev) == to_digits(continuant(want[1:])[1])


def test_level9_child_1221(level9):
    terms = level9[1]
    child = verify_child(1221, terms)
    assert child.status == "confirmed"
    assert str(child.error_observed.round_to(5)) == "-8.9992E-938890"
    assert child.denominator_shape.lengths() == (33, 449967, 32, 2885)
    assert child.child_length == 33056
    assert len(to_digits(terms[1221])) == 33056
    print("\ndeep: child at 1221 confirmed, shape 33/449967/32/2885")


def test_level10_full_verification():
    p = verify_hwm(10, compute_error=True, check_next_hwm=True)
    assert p.status == "confirmed"
    assert p.coefficient_index == 4838
    assert p.observed_ncd == 68_888_882
    assert p.next_hwm_length == 57_111_096
    print("\ndeep: level 10 confirmed, 4838 terms, next length 57111096")


@pytest.mark.deep
def test_level10_coefficients_reproduce_the_generation_table():
    """The 4,838 computed level-10 coefficients, written as `compute` writes
    them, classify into every published row below index 4,838."""
    terms = hwm_expansion(10, digits_up_to(required_prefix_position(10)))[2]
    out = io.StringIO()
    write_coefficients(terms, out)
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == LEVEL10_SHA256
    lengths = coefficient_digit_lengths(io.StringIO(out.getvalue()))
    assert len(lengths) == 4838
    by_index = {e.coefficient_index: e for e in classify(lengths)}
    with open(Path(__file__).parent / "data" / "generation_table.csv") as fp:
        rows = [r for r in csv.DictReader(fp) if int(r["index"]) < len(lengths)]
    assert len(rows) == 23
    for r in rows:
        e = by_index[int(r["index"])]
        assert (e.digit_length, e.generation) == (int(r["length"]), int(r["generation"]))
    print("\ndeep: level 10 coefficients reproduce the 23 generation-table rows")


@pytest.mark.deep
def test_level10_child_3569_through_the_cli(tmp_path, capsys):
    """The level-10 file's certificate, then the child after HWM #9, read
    back from that file: the file holds the chain's digit strings, and
    child computes on Decimals.

    With every term after the first >= 1, K(terms) = numerator and
    K(terms[1:]) = the predicted denominator prove, without Euclid, that
    the file expands numerator/denominator in lowest terms (the two
    continuants are coprime), and its even length that it is the
    odd-index expansion."""
    path = tmp_path / "c10.txt"
    argv = ["compute", "--hwm", "10", "--deep", "--emit-numerator", "--out", str(path)]
    assert main(argv) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == LEVEL10_SHA256
    terms = [Decimal(s) for s in path.read_text().splitlines()]
    numerator = Decimal(capsys.readouterr().out.rstrip("\n"))
    sci = denominator_sci(10)
    assert len(terms) % 2 == 0
    assert all(t >= 1 for t in terms[1:])
    with localcontext(EXACT):
        # short form: Decimal(int) of the 5.9M-digit denominator is quadratic
        denominator = Decimal(sci.digits).scaleb(sci.exponent - (len(sci.digits) - 1))
        assert cfe._continuant(terms[::-1]) == (numerator, denominator)
    argv = ["child", "--coefficient-index", "3569", "--coefficients", str(path)]
    assert main(argv + ["--format", "json"]) == 0
    p = json.loads(capsys.readouterr().out)
    assert p["status"] == "confirmed"
    assert p["follows_hwm"] == 9
    assert p["error_observed"] == "-8.999920E-11288890"
    assert p["error_predicted"] == "-8.99992E-11288890"
    shape = p["denominator_shape"]
    lengths = (len(shape["preamble"]), shape["nines_count"])
    lengths += (len(shape["penultimate"]), shape["zeroes_count"])
    assert lengths == (40, 5399960, 39, 38884)
    assert p["shape_lengths_predicted"] == list(lengths)
    assert p["child_length"] == p["child_length_predicted"] == 411_044
    print("\ndeep: child at 3569 confirmed, shape 40/5399960/39/38884")


@pytest.mark.deep
def test_level11_full_verification():
    # about 19 s at 1.8 GB (41 s while the chain's long quotients divided by
    # the zero-padded divisor): 7.9e8 constant digits and the level-12 length
    p = verify_hwm(11, compute_error=True, check_next_hwm=True, max_digits=9 * 10**8)
    assert p.status == "confirmed"
    assert all(c.ok for c in p.checks)
    assert p.observed_ncd == 788_888_881
    assert str(p.error_observed.round_to(8)) == "9.0000001E-788888890"
    assert p.coefficient_index == 13_522
    assert p.total_coefficient_digits == 68_897_496
    assert {c.field: c.observed for c in p.checks}["nines_run"] == 35_987
    assert p.next_hwm_length == 651_111_094
    print("\ndeep: level 11 confirmed, error 9.0000001E-788888890, next length 651111094")


@pytest.fixture(scope="module")
def level11(tmp_path_factory):
    """(coefficient file, numerator file) from one `compute --hwm 11 --deep
    --emit-numerator` run: about 12 s at 293 MB max RSS (43 s at 435 MB while
    the chain's long quotients divided by the zero-padded divisor), paid once
    per module."""
    out = tmp_path_factory.mktemp("level11")
    coefficients, numerator = out / "c11.txt", out / "num11.txt"
    argv = ["compute", "--hwm", "11", "--deep", "--emit-numerator", "--out", str(coefficients)]
    with open(numerator, "w") as fp, contextlib.redirect_stdout(fp):
        assert main(argv) == 0
    return coefficients, numerator


@pytest.mark.deep
def test_level11_file_is_the_recorded_one(level11):
    assert hashlib.sha256(level11[0].read_bytes()).hexdigest() == LEVEL11_SHA256
    print("\ndeep: compute --hwm 11 writes the recorded file")


@pytest.mark.deep
def test_level11_file_is_the_expansion_of_the_predicted_pair(level11):
    """The level-11 file's certificate, as for level 10: K(terms) = the
    emitted numerator and K(terms[1:]) = the predicted denominator, every
    term after the first >= 1 and an even length. The first check of the
    file that does not go through the level chain."""
    terms = [Decimal(s) for s in level11[0].read_text().splitlines()]
    numerator = Decimal(level11[1].read_text().rstrip("\n"))
    sci = denominator_sci(11)
    assert len(terms) % 2 == 0
    assert all(t >= 1 for t in terms[1:])
    with localcontext(EXACT):
        # short form: Decimal(int) of the 68.9M-digit denominator is quadratic
        denominator = Decimal(sci.digits).scaleb(sci.exponent - (len(sci.digits) - 1))
        assert cfe._continuant(terms[::-1]) == (numerator, denominator)
    print("\ndeep: the level-11 file expands the predicted pair")


@pytest.mark.deep
def test_level11_lengths_reproduce_the_generation_table(level11):
    """The 13,522 level-11 coefficient lengths, read off the file, classify
    into every published row below index 13,522."""
    with open(level11[0]) as fp:
        lengths = coefficient_digit_lengths(fp)
    assert len(lengths) == 13_522
    by_index = {e.coefficient_index: e for e in classify(lengths)}
    with open(Path(__file__).parent / "data" / "generation_table.csv") as fp:
        rows = [r for r in csv.DictReader(fp) if int(r["index"]) < len(lengths)]
    assert len(rows) == 31
    for r in rows:
        e = by_index[int(r["index"])]
        assert (e.digit_length, e.generation) == (int(r["length"]), int(r["generation"]))
    print("\ndeep: level 11 coefficients reproduce the 31 generation-table rows")


@pytest.mark.deep
def test_level11_numerator_patterns(level11):
    """The 68.9M-digit numerator carries the published nine-run structure:
    a 35987 run plus a separate 165 run, and the 40000009 tail."""
    import re

    s = level11[1].read_text()
    assert s.endswith("\n")
    s = s[:-1]
    assert len(s) == 68_888_897
    assert s.endswith("4" + "0" * 6 + "9")
    runs = sorted((len(m.group()) for m in re.finditer(r"9+", s)), reverse=True)
    assert runs[0] == 35987
    assert runs[1] == 165
    print("\ndeep: level 11 numerator has nine-runs 35987 and 165, tail 40000009")


@pytest.mark.deep
def test_level11_child_9827_through_the_cli(level11, capsys):
    """The child after HWM #10, read back from the level-11 file: a
    63,488,929-digit denominator checked against 131.9 M truth digits,
    past the default budget."""
    argv = ["--max-digits", "200000000", "child", "--coefficient-index", "9827"]
    assert main(argv + ["--coefficients", str(level11[0]), "--format", "json"]) == 0
    p = json.loads(capsys.readouterr().out)
    assert p["status"] == "confirmed"
    assert p["follows_hwm"] == 10
    assert p["error_observed"] == "-8.9999920E-131888890"
    assert p["error_predicted"] == "-8.999992E-131888890"
    assert p["observed_ncd"] == 131_888_889
    assert p["first_fail"] == {"integer": 17_874_999, "digit_ordinal": 8}
    assert p["fails_as"] == 17_874_998
    shape = p["denominator_shape"]
    lengths = (len(shape["preamble"]), shape["nines_count"])
    lengths += (len(shape["penultimate"]), shape["zeroes_count"])
    assert lengths == (47, 62_999_953, 46, 488_883)
    assert shape["total_length"] == 63_488_929
    assert p["shape_lengths_predicted"] == list(lengths)
    assert p["child_length"] == p["child_length_predicted"] == 4_911_032
    print("\ndeep: child at 9827 confirmed, shape 47/62999953/46/488883")
