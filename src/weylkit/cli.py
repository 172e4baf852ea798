"""Command-line front end: normalize, commutator, grade, polygon, analyze,
oracle.

Human-readable text by default; --json emits the versioned report schema
(see SCHEMA_VERSION and the README for the field layout).  Exit codes:
0 on success, 1 for parse or usage errors, 2 for internal invariant
breaches and any other unexpected exception, reported on one line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .element import (WeylElement, WeylInternalError, commutator, format_element, format_monomial,
                      format_ratio, numerators)
from .grading import grade_components
from .parser import element_from_string
from .polygon import PolygonProfile
from .polynomials import BiPoly, UniPoly
from .solvability import (
    DEFAULT_BOX_BOUND,
    DEFAULT_BOX_CAP,
    ElementProfile,
    Verdict,
    analyze,
    find_witness_box,
)

SCHEMA_VERSION = "weyl-report/3"

BOX_CAP_ENV = "WEYL_BOX_CAP"


def _box_cap() -> int:
    raw = os.environ.get(BOX_CAP_ENV)
    if raw is None:
        return DEFAULT_BOX_CAP
    try:
        cap = int(raw)
    except ValueError:
        raise _UsageError(f"{BOX_CAP_ENV} must be an integer, got {raw!r}")
    if cap < 0:
        raise _UsageError(f"{BOX_CAP_ENV} must be nonnegative, got {raw!r}")
    return cap


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# each rational is one decimal string, "-5" or "3/4", lossless at any size
def unipoly_to_json(f: UniPoly) -> list[str]:
    d, nums = numerators(f)
    return [format_ratio(c, d) for c in nums]


def bipoly_to_json(f: BiPoly) -> list[dict]:
    d, nums = numerators(f)
    return [{"i": i, "j": j, "coeff": format_ratio(nums[i, j], d)} for i, j in sorted(nums)]


def _grading_to_json(profile: ElementProfile) -> dict:
    """The "grade_span" and "h_form" fields of the analyze and grade reports."""
    span, hf = profile.span, profile.h_form
    return {
        "grade_span": {"min": span.min_grade, "max": span.max_grade},
        "h_form": [{"grade": s, "coeffs": unipoly_to_json(hf.parts[s])} for s in hf.grades()],
    }


def _polygon_to_json(profile: ElementProfile) -> dict:
    polygon = profile.polygon
    edge_items = [
        {
            "weight": [e.weight.rho, e.weight.sigma],
            "degree": e.degree,
            "support": [list(pt) for pt in sorted(e.support)],
            "polynomial": bipoly_to_json(e.polynomial),
            "power_index": index,
        }
        for e, index in zip(polygon.edges, profile.edge_indices)
    ]
    vertex_items = [
        {
            "point": list(v.point),
            "separating_weight": [v.separating_weight.rho, v.separating_weight.sigma],
        }
        for v in polygon.vertices
    ]
    return {"edges": edge_items, "vertices": vertex_items}


def _verdict_to_json(verdict: Verdict) -> dict:
    return {
        "outcome": verdict.outcome.value,
        "witness": format_element(verdict.witness) if verdict.witness is not None else None,
        "reasons": [
            {"rule": cit.rule.value, "params": cit.params, "citation": cit.citation}
            for cit in verdict.reasons
        ],
        "attempted": [rule.value for rule in verdict.attempted],
    }


class AnalysisReport:
    """Losslessly JSON-serializable summary of a full analysis run."""

    def __init__(self, input: str, normal_form: str, grade_span: dict | None, h_form: list[dict],
                 polygon: dict | None, verdict: dict, box_bound: int, schema: str = SCHEMA_VERSION):
        self.input = input
        self.normal_form = normal_form
        self.grade_span = grade_span
        self.h_form = h_form
        self.polygon = polygon
        self.verdict = verdict
        self.box_bound = box_bound
        self.schema = schema

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def to_json_dict(self) -> dict:
        # every field already holds JSON-ready data, so a shallow copy is enough
        return dict(vars(self))


def build_report(text: str, x: WeylElement, box: int, cap: int) -> AnalysisReport:
    verdict = analyze(x, box=box, cap=cap)
    if x.is_zero():
        facts = {"grade_span": None, "h_form": [], "polygon": None}
    else:
        facts = {**_grading_to_json(verdict.profile), "polygon": _polygon_to_json(verdict.profile)}
    return AnalysisReport(
        input=text,
        normal_form=format_element(x),
        verdict=_verdict_to_json(verdict),
        box_bound=box,
        **facts,
    )


#: Largest p or q exponent the lattice sketch draws; its size grows with the square.
SKETCH_MAX_EXPONENT = 60


def lattice_sketch(x: WeylElement, polygon: PolygonProfile) -> str:
    """ASCII picture of the support lattice of x with its polygon: '*'
    support points, 'E' points on an edge, 'V' joining vertices.  One line
    instead when an exponent exceeds SKETCH_MAX_EXPONENT.  Presentation only."""
    pts = x.support()
    if not pts:
        return "(empty support)"
    imax = max(i for i, _ in pts)
    jmax = max(j for _, j in pts)
    if max(imax, jmax) > SKETCH_MAX_EXPONENT:
        return f"(sketch omitted: an exponent exceeds {SKETCH_MAX_EXPONENT})"
    # a later mark wins: a vertex over an edge point over a support point
    marks = dict.fromkeys(pts, "*")
    marks.update((pt, "E") for e in polygon.edges for pt in e.support)
    marks.update((v.point, "V") for v in polygon.vertices)
    rows = [f"q^{j:<2} | " + " ".join(marks.get((i, j), ".") for i in range(imax + 1))
            for j in range(jmax, -1, -1)]
    rows.append("      " + "--" * (imax + 1))
    rows.append("       " + " ".join(f"{i}" if i < 10 else "+" for i in range(imax + 1)))
    rows.append("       (p exponent along the bottom; V vertex, E edge point, * support)")
    return "\n".join(rows)


# each _cmd_* handler returns (JSON payload, text lines); main prints one


def _cmd_normalize(args) -> tuple[dict, list[str]]:
    x = element_from_string(args.expr)
    return {"input": args.expr, "normal_form": format_element(x)}, [format_element(x)]


def _cmd_commutator(args) -> tuple[dict, list[str]]:
    x = element_from_string(args.left)
    y = element_from_string(args.right)
    result = format_element(commutator(x, y))
    return {"left": args.left, "right": args.right, "commutator": result}, [result]


def _cmd_grade(args) -> tuple[dict, list[str]]:
    x = element_from_string(args.expr)
    if x.is_zero():
        raise _UsageError("the zero element has no grading data")
    profile = ElementProfile(x)
    span, hf = profile.span, profile.h_form
    comps = grade_components(x)
    payload = {
        "input": args.expr,
        "normal_form": format_element(x),
        "components": {str(s): format_element(c) for s, c in comps.items()},
        **_grading_to_json(profile),
    }
    lines = [
        f"normal form : {format_element(x)}",
        f"grade span  : [{span.min_grade}, {span.max_grade}]",
        "components  :",
    ]
    for s, c in comps.items():
        lines.append(f"  grade {s:+d}: {format_element(c)}")
    lines.append("h-form      :")
    for s in hf.grades():
        f = hf.parts[s]
        tail = format_monomial((max(0, -s), max(0, s)), "pq")
        term = f"({f}) * {tail}" if tail else str(f)
        lines.append(f"  grade {s:+d}: {term}   [X stands for h]")
    return payload, lines


def _cmd_polygon(args) -> tuple[dict, list[str]]:
    x = element_from_string(args.expr)
    if x.is_zero():
        raise _UsageError("the zero element has no support polygon")
    profile = ElementProfile(x)
    polygon = profile.polygon
    payload = {
        "input": args.expr,
        "normal_form": format_element(x),
        "polygon": _polygon_to_json(profile),
        "support": [list(pt) for pt in sorted(x.support())],
    }
    lines = [f"normal form : {format_element(x)}"]
    if polygon.edges:
        lines.append("edges:")
        for e, pidx in zip(polygon.edges, profile.edge_indices):
            pidx_txt = str(pidx) if pidx is not None else "n/a (non-axis weight)"
            lines.append(
                f"  weight {e.weight}: degree {e.degree}, "
                f"support {sorted(e.support)}, polynomial {e.polynomial}, "
                f"power index {pidx_txt}"
            )
    else:
        lines.append("edges: none")
    if polygon.vertices:
        lines.append("joining vertices:")
        for v in polygon.vertices:
            lines.append(f"  point {v.point} with separating weight {v.separating_weight}")
    lines.append("")
    lines.append(lattice_sketch(x, polygon))
    return payload, lines


def _cmd_analyze(args) -> tuple[dict | None, list[str]]:
    x = element_from_string(args.expr)
    if args.json:
        return build_report(args.expr, x, box=args.box, cap=_box_cap()).to_json_dict(), []
    # the text form prints no h-form or polygon, so it builds no report
    verdict = _verdict_to_json(analyze(x, box=args.box, cap=_box_cap()))
    lines = [
        f"normal form : {format_element(x)}",
        f"verdict     : {verdict['outcome']}",
    ]
    if verdict["witness"] is not None:
        lines.append(f"witness     : {verdict['witness']}")
    for reason in verdict["reasons"]:
        lines.append(f"rule        : {reason['rule']}  {reason['params']}")
        lines.append(f"              {reason['citation']}")
    if verdict["outcome"] == "unknown":
        lines.append(f"attempted   : {', '.join(verdict['attempted'])}")
        lines.append(f"box bound   : {args.box}")
    return None, lines


def _cmd_oracle(args) -> tuple[dict, list[str]]:
    x = element_from_string(args.expr)
    y = find_witness_box(x, args.box, cap=_box_cap())
    payload = {
        "input": args.expr,
        "box": args.box,
        "witness": format_element(y) if y is not None else None,
    }
    if y is not None:
        lines = [f"witness within box {args.box}: {format_element(y)}"]
    else:
        lines = [f"no witness with exponents at most {args.box}"]
    return payload, lines


def _build_parser() -> _Parser:
    parser = _Parser(prog="weyl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # name, handler, help, positionals, and the --box settings (None: no --box)
    commands = (
        ("normalize", _cmd_normalize, "normal form of an expression", ("expr",), None),
        ("commutator", _cmd_commutator, "[left, right]", ("left", "right"), None),
        ("grade", _cmd_grade, "graded components, span and h-form", ("expr",), None),
        ("polygon", _cmd_polygon, "edges, vertices and lattice sketch", ("expr",), None),
        ("analyze", _cmd_analyze, "run the solvability decision ladder", ("expr",),
         {"default": DEFAULT_BOX_BOUND}),
        ("oracle", _cmd_oracle, "witness search in an exponent box", ("expr",), {"required": True}),
    )
    for name, handler, help_text, positionals, box in commands:
        sp = sub.add_parser(name, help=help_text)
        for positional in positionals:
            sp.add_argument(positional)
        if box is not None:
            sp.add_argument("--box", type=int, **box)
        sp.add_argument("--json", action="store_true")
        sp.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        payload, lines = args.func(args)
        if args.json:
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            for line in lines:
                print(line)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return 0
    except BrokenPipeError:
        # stdout's reader is gone: point stdout at devnull, so that the flush
        # at interpreter exit has nowhere to fail (the recipe in the Python
        # `signal` documentation)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (_UsageError, ValueError) as exc:  # ExprSyntaxError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except WeylInternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, reported on one line instead of a traceback
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
