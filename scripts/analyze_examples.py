#!/usr/bin/env python3
"""Walk a set of showcase elements through the whole pipeline and print
what each stage sees: normal form, grading, polygon, verdict.

Run with:  python scripts/analyze_examples.py
"""

from weylkit import Outcome, analyze, element_from_string
from weylkit.cli import lattice_sketch

EXAMPLES = [
    ("the defining element h", "h"),
    ("a square of h", "h^2"),
    ("a pure generator power", "q^3"),
    ("an affine family member", "p + q^2"),
    ("a two-edge element", "p^4 + p^3*q + p^2*q^2 + q^3 + q"),
    ("an edgeless element", "p^2*q^2 + p*q + 1"),
    ("a non-axis edge", "p^3*q + q^3"),
    ("coprime edge power indices", "(p^3*q^3 + p^4*q)^2 + p^3*q^9 + 3*p^4*q^8 + 3*p^5*q^7"),
    ("a square of a solvable element", "(p + q^2)^2"),
]


def main():
    for label, text in EXAMPLES:
        x = element_from_string(text)
        print("=" * 72)
        print(f"{label}:  {text}")
        print(f"  normal form : {x}")
        verdict = analyze(x)
        profile = verdict.profile
        span = profile.span
        print(f"  grade span  : [{span.min_grade}, {span.max_grade}]")
        hf = profile.h_form
        for s in hf.grades():
            print(f"  h-form {s:+d}  : {hf.parts[s]}")
        polygon = profile.polygon
        for e, idx in zip(polygon.edges, profile.edge_indices):
            print(
                f"  edge {e.weight}  : degree {e.degree}, polynomial {e.polynomial}"
                + (f", power index {idx}" if idx is not None else ", non-axis weight")
            )
        for v in polygon.vertices:
            print(f"  vertex      : {v.point} separated by {v.separating_weight}")
        print(f"  verdict     : {verdict.outcome.value}")
        if verdict.outcome == Outcome.SOLVABLE:
            print(f"  witness     : {verdict.witness}")
        for cit in verdict.reasons:
            print(f"  rule        : {cit.rule.value}  {cit.params}")
        print()
        print(lattice_sketch(x, polygon))
        print()


if __name__ == "__main__":
    main()
