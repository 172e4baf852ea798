#!/usr/bin/env python3
"""Survey the decision ladder over random elements and tally which rule
decides each one.

Run with:  python scripts/verdict_survey.py --count 300 --max-exp 4 --seed 7
"""

import argparse
import random
import sys
import time
from collections import Counter
from math import ceil

from weylkit import Outcome, WeylElement, analyze


def random_element(rng, max_exp, max_terms, coeff_bound):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-coeff_bound, coeff_bound)
        if c:
            terms[(rng.randint(0, max_exp), rng.randint(0, max_exp))] = c
    return WeylElement(terms)


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with at least q% of the
    values at or below it."""
    ranked = sorted(values)
    return ranked[max(ceil(q * len(ranked) / 100) - 1, 0)]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=300)
    ap.add_argument("--max-exp", type=int, default=4)
    ap.add_argument("--max-terms", type=int, default=5)
    ap.add_argument("--coeff-bound", type=int, default=9)
    ap.add_argument("--box", type=int, default=4)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()
    if args.count < 1:
        print(f"error: --count must be at least 1, got {args.count}", file=sys.stderr)
        return 1

    rng = random.Random(args.seed)
    outcomes = Counter()
    deciding_rule = Counter()
    step_counts = []
    times_ms = []
    started = time.perf_counter()
    for _ in range(args.count):
        x = random_element(rng, args.max_exp, args.max_terms, args.coeff_bound)
        t0 = time.perf_counter()
        verdict = analyze(x, box=args.box)
        times_ms.append(1000 * (time.perf_counter() - t0))
        outcomes[verdict.outcome] += 1
        if verdict.reasons:
            deciding_rule[verdict.reasons[0].rule.value] += 1
            if "steps" in verdict.reasons[0].params:
                step_counts.append(len(verdict.reasons[0].params["steps"]))
        else:
            deciding_rule["(none: unknown)"] += 1
    elapsed = time.perf_counter() - started

    print(f"{args.count} elements, exponents <= {args.max_exp}, box {args.box}, "
          f"{elapsed:.2f}s ({1000 * elapsed / args.count:.1f} ms/element)")
    print(f"analyze per element: p50 {percentile(times_ms, 50):.3f} ms, "
          f"p95 {percentile(times_ms, 95):.3f} ms")
    print()
    print("outcomes:")
    for outcome in Outcome:
        print(f"  {outcome.value:<12} {outcomes.get(outcome, 0)}")
    print()
    print(f"reduced by automorphism steps: {len(step_counts)} verdicts, "
          f"at most {max(step_counts, default=0)} steps")
    print()
    print("deciding rule:")
    for rule, n in deciding_rule.most_common():
        print(f"  {rule:<26} {n}  {n / args.count:6.1%}")


if __name__ == "__main__":
    sys.exit(main())
