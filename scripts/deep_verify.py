#!/usr/bin/env python3
"""Verify the deep levels (9 and 10) with per-stage timing.

Level 9 with the error measurement takes about half a minute on the
plain-int path (CPython 3.11, no gmpy2) and under three minutes with the
next-level check; level 10 needs roughly 69 million constant digits for
its error and runs for minutes.
"""

import argparse
import sys
import time

from champcfe import verify_hwm


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-hwm", type=int, default=9, choices=(9, 10))
    parser.add_argument(
        "--no-error", action="store_true", help="skip the 12x-digit error measurement"
    )
    parser.add_argument(
        "--no-next", action="store_true", help="skip the next-level length check"
    )
    args = parser.parse_args()

    worst = 0
    for n in range(9, args.max_hwm + 1):
        start = time.perf_counter()
        profile = verify_hwm(
            n,
            compute_error=not args.no_error,
            check_next_hwm=not args.no_next,
        )
        elapsed = time.perf_counter() - start
        print(f"level {n}: {profile.status} in {elapsed:.1f}s")
        for check in profile.checks:
            mark = "ok " if check.ok else "FAIL"
            print(f"  [{mark}] {check.field}: {check.observed}")
        if profile.status != "confirmed":
            worst = 2
    return worst


if __name__ == "__main__":
    sys.exit(main())
