import csv
from pathlib import Path

import pytest

from champcfe import (
    AnchorError,
    GenerationEntry,
    child_positions,
    classify,
    find_hwms,
)
from champcfe.arith import to_digits
from champcfe.generations import _threshold_for, hwm_numbers

DATA = Path(__file__).parent / "data"


def load_generation_table():
    with open(DATA / "generation_table.csv") as fp:
        return [
            (int(r["index"]), int(r["length"]), int(r["generation"]))
            for r in csv.DictReader(fp)
        ]


def synthetic_lengths():
    """Digit lengths through coefficient 34061, with the published large
    entries in place and single-digit filler everywhere else."""
    lengths = [1] * 34062
    lengths[4] = 6
    for index, length, _ in load_generation_table():
        lengths[index] = length
    return lengths


class TestFindHwms:
    def test_first_163_coefficients(self, level8_terms):
        lengths = [len(to_digits(t)) for t in level8_terms[:163]]
        entries = find_hwms(lengths)
        assert [e.coefficient_index for e in entries] == [0, 4, 18, 40, 162]
        assert [e.digit_length for e in entries] == [1, 6, 166, 2504, 33102]

    def test_all_equal_lengths(self):
        assert find_hwms([3, 3, 3, 3]) == [GenerationEntry(0, 3, 1)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            find_hwms([])

    def test_full_synthetic_sequence(self):
        entries = find_hwms(synthetic_lengths())
        assert [e.coefficient_index for e in entries] == [
            0,
            4,
            18,
            40,
            162,
            526,
            1708,
            4838,
            13522,
        ]
        numbering = hwm_numbers(entries)
        assert numbering[0] == 1
        assert numbering[4] == 4
        assert numbering[13522] == 11


class TestThresholds:
    def test_interval_lookup(self):
        assert _threshold_for(5) == 50
        assert _threshold_for(8) == 50
        assert _threshold_for(9) == 300
        assert _threshold_for(10) == 5000
        assert _threshold_for(11) == 50000
        assert _threshold_for(99) == 50000
        assert _threshold_for(1) == 50  # below the smallest key


class TestClassify:
    def test_level8_real_data(self, level8_terms):
        lengths = [len(to_digits(t)) for t in level8_terms]
        entries = classify(lengths)
        by_index = {e.coefficient_index: e for e in entries}
        assert by_index[101].generation == 2 and by_index[101].digit_length == 140
        assert by_index[357].generation == 2 and by_index[357].digit_length == 2468
        assert by_index[246].generation == 3 and by_index[246].digit_length == 109
        assert by_index[459].generation == 3 and by_index[459].digit_length == 136

    def test_output_is_in_index_order(self, level8_terms):
        lengths = [len(to_digits(t)) for t in level8_terms]
        entries = classify(lengths)
        indices = [e.coefficient_index for e in entries]
        assert indices == sorted(indices)

    def test_generation_one_equals_find_hwms(self, level8_terms):
        lengths = [len(to_digits(t)) for t in level8_terms]
        entries = classify(lengths)
        assert [e for e in entries if e.generation == 1] == find_hwms(lengths)

    def test_reproduces_published_generation_table(self):
        entries = classify(synthetic_lengths())
        by_index = {e.coefficient_index: e for e in entries}
        for index, length, generation in load_generation_table():
            assert by_index[index].digit_length == length
            assert by_index[index].generation == generation, index

    def test_anchor_failure_signalled(self):
        lengths = [1] * 200
        lengths[4] = 6
        lengths[18] = 166
        lengths[40] = 2504
        lengths[162] = 33102
        lengths[101] = 90  # not the predicted 140-digit child
        with pytest.raises(AnchorError):
            classify(lengths)

    def test_anchor_exact_match_required(self, level8_terms):
        lengths = [len(to_digits(t)) for t in level8_terms]
        entries = classify(lengths)
        from champcfe import child_length

        gen2 = {e.coefficient_index: e.digit_length for e in entries if e.generation == 2}
        assert gen2[101] == child_length(5)
        assert gen2[357] == child_length(6)


class TestChildPositions:
    def test_published_children(self):
        entries = classify(synthetic_lengths())
        scan = child_positions(entries)
        assert scan.indices == [101, 357, 1221, 3569, 9827, 25069]
        assert scan.violations == []
        assert all(i % 2 == 1 for i in scan.indices)

    def test_missing_child_is_reported(self):
        lengths = [1] * 200
        lengths[4] = 6
        lengths[18] = 166
        lengths[40] = 2504
        lengths[162] = 33102
        # interval after maximum #6 holds no child at all
        entries = classify(lengths)
        scan = child_positions(entries)
        assert any("expected one child" in v for v in scan.violations)

    def test_even_child_index_is_reported(self):
        lengths = [1] * 200
        lengths[4] = 6
        lengths[18] = 166
        lengths[40] = 2504
        lengths[100] = 140  # child length at an even index
        lengths[162] = 33102
        entries = classify(lengths)
        scan = child_positions(entries)
        assert any("is even" in v for v in scan.violations)
