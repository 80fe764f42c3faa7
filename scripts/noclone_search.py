#!/usr/bin/env python3
"""Exhaust projective cloner searches over a small (m, l) grid.

For each point the universal search should come up empty while the
simple-ray search should produce a witness; the script prints both outcomes
with their search-space sizes so the asymmetry is visible at a glance.
"""

import argparse
import sys

from f1q.budget import BudgetExceededError
from f1q.clone_delete import scalar_obstruction, search_projective_cloner
from f1q.operators import format_matrix


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-m", type=positive_int, default=2, help="largest frame dimension")
    parser.add_argument("--max-l", type=positive_int, default=2, help="largest field level")
    parser.add_argument("--budget", type=positive_int, default=None)
    parser.add_argument("--workers", type=positive_int, default=1)
    parser.add_argument("--show-witness", action="store_true")
    args = parser.parse_args()

    try:
        return search_grid(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


def search_grid(args: argparse.Namespace) -> int:
    for m in range(2, args.max_m + 1):
        for l in range(1, args.max_l + 1):
            full = search_projective_cloner(
                m, l, scope="all", budget=args.budget, workers=args.workers
            )
            simple = search_projective_cloner(
                m, l, scope="simple", budget=args.budget, workers=args.workers
            )
            space = f"{full.unitaries_searched} x {full.blanks_searched}"
            obstruction = ", ".join(str(a) for a in scalar_obstruction(l)) or "none"
            print(f"m={m} l={l}  search space {space}")
            print(f"  universal cloner : {'FOUND (!)' if full.found else 'none'}")
            print(f"  simple-ray cloner: {'found' if simple.found else 'none (!)'}")
            print(f"  scalar obstruction: {obstruction}")
            if full.found:
                print("  unexpected universal cloner; aborting", file=sys.stderr)
                return 1
            if args.show_witness and simple.found:
                print("  witness operator:")
                for line in format_matrix(simple.witness_operator).splitlines():
                    print(f"    {line}")
                print(f"  witness blank: {simple.witness_blank}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
