"""Classification of the large continued-fraction coefficients into
generations.

First-generation entries are the running digit-length maxima. Between two
consecutive maxima the remaining large coefficients cluster into clearly
separated magnitude bands (observed gaps exceed a decade, in-band spread
stays under a tenth of one), and the bands rank as generations 2, 3, 4, ...
from the largest down. The band holding the predicted child length anchors
generation 2; a band layout that cannot be anchored is reported, not
guessed around.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import predict

# Scan floors by the number of the maximum opening each gap: coefficients at
# or below the floor stay unclassified.
DEFAULT_THRESHOLDS = {5: 50, 9: 300, 10: 5000, 11: 50000}

DEFAULT_CLUSTER_GAP = 0.5  # decades of digit length between bands


class AnchorError(Exception):
    """No magnitude band matches the predicted child length."""


@dataclass(frozen=True)
class GenerationEntry:
    coefficient_index: int
    digit_length: int
    generation: int


def _threshold_for(left_hwm_number: int) -> int:
    """Scan floor (exclusive) of the gap opened by the given maximum: the
    entry with the largest key at or below it, else the smallest key's."""
    keys = [k for k in DEFAULT_THRESHOLDS if k <= left_hwm_number]
    return DEFAULT_THRESHOLDS[max(keys, default=min(DEFAULT_THRESHOLDS))]


def find_hwms(lengths: Sequence[int]) -> list[GenerationEntry]:
    """Running digit-length maxima, each tagged generation 1. Index 0 seeds
    the scan (nothing precedes it); later entries must strictly exceed
    every earlier length."""
    if not lengths:
        raise ValueError("empty length sequence")
    out = [GenerationEntry(0, lengths[0], 1)]
    best = lengths[0]
    for i in range(1, len(lengths)):
        if lengths[i] > best:
            out.append(GenerationEntry(i, lengths[i], 1))
            best = lengths[i]
    return out


def hwm_numbers(maxima: Sequence[GenerationEntry]) -> dict[int, int]:
    """Map maxima indices to conventional HWM numbers: the seed at index 0
    is #1, and later length maxima run #4, #5, ... (#2 and #3 of the
    value-based count never grow past one digit)."""
    numbering = {}
    for rank, entry in enumerate(maxima):
        numbering[entry.coefficient_index] = 1 if rank == 0 else rank + 3
    return numbering


def _clusters(lengths: list[int]) -> list[list[int]]:
    """Group sorted digit lengths into bands separated by more than
    DEFAULT_CLUSTER_GAP decades."""
    ordered = sorted(set(lengths))
    bands = [[ordered[0]]]
    for a, b in zip(ordered, ordered[1:]):
        if math.log10(b) - math.log10(a) > DEFAULT_CLUSTER_GAP:
            bands.append([b])
        else:
            bands[-1].append(b)
    return bands


def classify(lengths: Sequence[int]) -> list[GenerationEntry]:
    """Assign a generation to every coefficient above its gap's scan floor,
    in input order.

    Output order equals index order and the generation-1 rows equal
    find_hwms exactly. Raises AnchorError when a gap's bands cannot be
    anchored to the predicted child length.
    """
    maxima = find_hwms(lengths)
    numbering = hwm_numbers(maxima)
    entries = list(maxima)

    bounds = [e.coefficient_index for e in maxima] + [len(lengths)]
    for left, right in zip(bounds, bounds[1:]):
        left_no = numbering[left]
        floor = _threshold_for(left_no)
        gap_entries = [
            (i, lengths[i]) for i in range(left + 1, right) if lengths[i] > floor
        ]
        if not gap_entries:
            continue
        bands = _clusters([L for _, L in gap_entries])
        bands.sort(key=max, reverse=True)
        anchor = predict.child_length(left_no - 1) if left_no >= predict.FIRST_CHILD_HWM else None
        if anchor is not None and anchor not in bands[0]:
            raise AnchorError(
                f"gap after maximum #{left_no}: predicted child length {anchor} "
                f"not in the top band {bands[0]}"
            )
        generation_of = {}
        for rank, band in enumerate(bands):
            for length in band:
                generation_of[length] = rank + 2
        entries.extend(
            GenerationEntry(i, L, generation_of[L]) for i, L in gap_entries
        )

    entries.sort(key=lambda e: e.coefficient_index)
    return entries


@dataclass(frozen=True)
class ChildScan:
    indices: list[int]
    violations: list[str]


def child_positions(entries: Sequence[GenerationEntry]) -> ChildScan:
    """Generation-2 indices with the one-per-gap and odd-index rules
    enforced; rule breaks come back as violations, not exceptions."""
    gen1 = [e.coefficient_index for e in entries if e.generation == 1]
    numbering = hwm_numbers([e for e in entries if e.generation == 1])
    gen2 = [e.coefficient_index for e in entries if e.generation == 2]
    violations = []

    # only gaps closed on both sides carry the exactly-one rule; a trailing
    # segment may end before its child shows up
    for left, right in zip(gen1, gen1[1:]):
        if numbering[left] < predict.FIRST_CHILD_HWM:
            continue
        inside = [i for i in gen2 if left < i < right]
        if len(inside) != 1:
            violations.append(
                f"gap after maximum #{numbering[left]}: expected one child, "
                f"found {len(inside)}"
            )
    for i in gen2:
        if not predict.parity_consistent(i, generation=2):
            violations.append(f"child index {i} is even")
    return ChildScan(indices=gen2, violations=violations)
