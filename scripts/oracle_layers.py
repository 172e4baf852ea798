#!/usr/bin/env python3
"""Split the box oracle's time into its two layers on the oracle_deep
elements: building the system (_box_system) and solving it (_solve).

For each element and box it prints the system's columns, rows and nonzeros
(right-hand side included) before and after the peel, the bit length of
the largest pivot-row entry of the integer elimination ("-" when the peel
decided alone), whether a witness was found, the best-of-N milliseconds of
each layer, the rank (the number of pivots left of the right-hand side,
which the echelon form makes the rank of the rows the peel leaves; "-"
when the peel decided alone) and the bit length of the system's largest
absolute entry, right-hand side included.  The pivot bits and the rank
come from eliminating the right-hand side as one more column, so an
inconsistent system, where _eliminate stops early, has them too.  Rows
are keyed by the integer codes of _box_system; the unit row is code 0.

Run with:  python scripts/oracle_layers.py --boxes 4 8 12 16 --repeat 15
"""

import argparse
import sys
import time

from weylkit import element_from_string, solvability

ELEMENTS = ("p^3*q^2+q^4+p^2", "(p+q^2)^2", "p+q^2", "h")


def best_ms(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return 1000 * best


def layers(text, box, repeat):
    x = element_from_string(text)
    brackets, columns, d = solvability._box_system(x, box)
    rhs = {0: d}
    rows = {0}.union(*brackets)
    before = (len(columns), len(rows), sum(map(len, brackets)) + 1)
    bits = max(abs(c) for col in (*brackets, rhs) for c in col.values()).bit_length()
    # what the elimination receives is the system the peel leaves
    seen = []
    eliminate = solvability._eliminate

    def recorded(rows, ncols):
        seen.append((rows, ncols, eliminate(rows, ncols + 1)))
        return eliminate(rows, ncols)

    solvability._eliminate = recorded
    try:
        found = solvability._solve(brackets, rhs) is not None
    finally:
        solvability._eliminate = eliminate
    if seen:
        ((left, ncols, pivots),) = seen
        cols = {t for row in left for t in row if t != ncols}
        after = (len(cols), len(left), sum(map(len, left)))
        rank = str(sum(col < ncols for col in pivots))
        growth = str(max(abs(c) for a, row in pivots.values() for c in (a, *row.values())).bit_length())
    else:
        after = (0, 0, 0)
        rank = growth = "-"
    build = best_ms(lambda: solvability._box_system(x, box), repeat)
    solve = best_ms(lambda: solvability._solve(brackets, rhs), repeat)
    return before, after, growth, found, build, solve, rank, bits


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--boxes", type=int, nargs="+", default=[4, 8, 12, 16])
    ap.add_argument("--repeat", type=int, default=15)
    args = ap.parse_args()
    if args.repeat < 1 or min(args.boxes) < 0:
        print("error: --repeat must be at least 1 and every box nonnegative", file=sys.stderr)
        return 1
    print(f"{'element':<18}{'box':>4}  {'cols x rows / nnz before':>25}  {'after peel':>16}"
          f"  {'pivot bits':<12}{'found':<7}{'build ms':>9}{'solve ms':>10}{'rank':>6}{'bits':>6}")
    for box in args.boxes:
        for text in ELEMENTS:
            before, after, growth, found, build, solve, rank, bits = layers(text, box, args.repeat)
            print(f"{text:<18}{box:>4}  {'%d x %d / %d' % before:>25}  {'%d x %d / %d' % after:>16}"
                  f"  {growth:<12}{'yes' if found else 'no':<7}{build:>9.3f}{solve:>10.3f}{rank:>6}{bits:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
