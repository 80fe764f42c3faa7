#!/usr/bin/env python3
"""Sweep the deletion success probability over m and l.

Each cell is the exact fraction of rays whose designated coordinate is
nonzero, audited per ray by applying the deletion operator when the frame
is small enough and by the closed form otherwise.  The row and column
limits (l/(l+1) and 1) are printed alongside to show the convergence.
"""

import argparse
import csv
import sys

from f1q.clone_delete import (
    check_probability_digits,
    limit_m_infinity,
    probability_a1,
    verify_deletion,
)

AUDIT_CAP = 2000  # audit per ray only while the ray count stays desk-sized


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=positive_int, default=6)
    parser.add_argument("--max-l", type=positive_int, default=6)
    parser.add_argument("--csv", default=None,
                        help="also write the sweep as CSV to this path")
    args = parser.parse_args()
    # the largest cell has the longest fraction; refuse before printing any,
    # and before opening the CSV path, so a refused run leaves the file as it was
    try:
        check_probability_digits(args.max_m, args.max_l)
    except ValueError as exc:
        parser.error(str(exc))

    writer = None
    if args.csv:
        try:
            csv_file = open(args.csv, "w")
        except OSError as exc:
            parser.error(f"argument --csv: can't open '{args.csv}': {exc}")
        writer = csv.writer(csv_file, lineterminator="\n")
        writer.writerow(["m", "l", "num", "den", "value", "audited"])

    header = "m\\l " + " ".join(f"{l:>12d}" for l in range(1, args.max_l + 1))
    print(header)
    for m in range(1, args.max_m + 1):
        cells = []
        for l in range(1, args.max_l + 1):
            p = probability_a1(m, l)
            audited = (l + 1) ** m <= AUDIT_CAP
            if audited:
                report = verify_deletion(m, l)
                if report.probability != p:
                    print(f"audit mismatch at m={m}, l={l}", file=sys.stderr)
                    return 1
            cells.append(f"{str(p):>10s}{'*' if audited else ' '}")
            if writer:
                writer.writerow(
                    [m, l, p.numerator, p.denominator, repr(float(p)), int(audited)]
                )
        print(f"{m:>3d} " + "  ".join(cells))
    print("(* = audited ray by ray)")

    print("\nlimits as m grows, by level (approached from above):")
    for l in range(1, args.max_l + 1):
        lim = limit_m_infinity(l)
        gap = probability_a1(args.max_m, l) - lim
        print(f"  l={l}: -> {lim}  (gap at m={args.max_m}: {float(gap):.3e})")
    print("limit as l grows: -> 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
