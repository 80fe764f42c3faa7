#!/usr/bin/env python3
"""Print the four-theory comparison table for a list of primes.

For each q the modal side is measured by dense matrix arithmetic over
F_{q^2} and the absolute side by the monoid-field unitary group at
r = q - 1; the script fails loudly if any alignment check breaks.
"""

import argparse
import sys

from f1q.mqt import dictionary_table


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--primes", type=int, nargs="+", default=[2, 3, 5],
        help="primes q to instantiate (default: 2 3 5)",
    )
    args = parser.parse_args()
    try:
        tables = [dictionary_table(q) for q in args.primes]
    except ValueError as exc:  # q not prime, or above the largest supported
        parser.error(str(exc))

    for q, table in zip(args.primes, tables):
        print(f"q = {q} (r = {table.r}, modulus {table.modulus})")
        print(table.to_markdown())
        status = "aligned" if table.aligned else "MISALIGNED"
        print(
            f"scalar groups: modal order {table.modal_scalar_order}, "
            f"absolute order {table.absolute_scalar_order}; "
            f"fixed field sizes {table.fixed_sizes[0]} vs {table.fixed_sizes[1]}; "
            f"{status}\n"
        )
        if not table.aligned:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
