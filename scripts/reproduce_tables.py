#!/usr/bin/env python3
"""Recompute the published convergent characteristics at desk scale and
print them as tables: per-level summary, calculation efficiency, child
lengths, child denominator blocks, and the generation classification.

Everything up to level 8 runs in seconds; pass --deep to extend the
summary through level 9.
"""

import argparse
import sys
import time

from champcfe import (
    cfe_extract,
    child_length,
    classify,
    digits_up_to,
    hwm_convergent,
    verify_child,
    verify_hwm,
)
from champcfe.arith import digit_count


def level_summary(levels):
    print("Per-level characteristics (computed and confirmed)")
    print(
        f"{'N':>2} {'coeff#':>7} {'fails':>9} {'as':>9} {'NCD':>10} "
        f"{'error':>22} {'den digits':>11} {'next len':>10} {'status':>10}"
    )
    profiles = {}
    for n in levels:
        p = verify_hwm(n, compute_error=True, check_next_hwm=True)
        profiles[n] = p
        err = p.error_observed.round_to(len(p.error_predicted.digits))
        print(
            f"{n:>2} {p.coefficient_index:>7} {p.first_fail.integer:>9} "
            f"{p.fails_as:>9} {p.observed_ncd:>10} {str(err):>22} "
            f"{p.denominator_digits:>11} {p.next_hwm_length:>10} {p.status:>10}"
        )
    return profiles


def efficiency(profiles):
    print("\nCalculation efficiency")
    print(f"{'N':>2} {'cfe digits':>11} {'c10 digits':>11}")
    for n, p in profiles.items():
        print(f"{n:>2} {p.total_coefficient_digits:>11} {p.c10_digits_used:>11}")


def children(kids):
    print("\nChildren (2nd generation) observed in the level-8 coefficients")
    print(f"{'index':>6} {'length':>7} {'predicted':>10} {'error':>18} {'status':>10}")
    for k, child in kids.items():
        err = child.error_observed.round_to(len(child.error_predicted.digits))
        print(
            f"{k:>6} {child.child_length:>7} {child.child_length_predicted:>10} "
            f"{str(err):>18} {child.status:>10}"
        )
    print("\npredicted child lengths through level 12:")
    for n in range(5, 13):
        print(f"  after maximum #{n + 1}: {child_length(n)}")


def child_shapes(kids):
    print("\nChild denominator blocks")
    for k, child in kids.items():
        s = child.denominator_shape
        print(
            f"  index {k}: preamble {s.preamble} ({len(s.preamble)}), "
            f"nines {s.nines_count}, penultimate {s.penultimate} "
            f"({len(s.penultimate)}), zeroes {s.zeroes_count}, "
            f"total {s.total_length} (predicted lengths {child.shape_lengths_predicted})"
        )


def generation_table(terms):
    print("\nGeneration classification of the level-8 coefficients")
    lengths = [digit_count(t) for t in terms]
    for e in classify(lengths):
        print(f"  {e.coefficient_index:>5} {e.digit_length:>9}  gen {e.generation}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--deep", action="store_true", help="extend through level 9")
    args = parser.parse_args()

    start = time.perf_counter()
    levels = range(4, 10 if args.deep else 9)
    profiles = level_summary(levels)
    efficiency(profiles)

    truth = digits_up_to(80_000)
    num, den = hwm_convergent(8, truth)
    terms = cfe_extract(num, den, final_index_parity="odd")
    kids = {k: verify_child(k, terms) for k in (101, 357)}
    children(kids)
    child_shapes(kids)
    generation_table(terms)
    print(f"\ntotal runtime: {time.perf_counter() - start:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
