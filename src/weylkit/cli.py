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
from dataclasses import dataclass, field
from fractions import Fraction

from .element import WeylElement, WeylInternalError, commutator, format_element
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

SCHEMA_VERSION = "weyl-report/1"

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


def scalar_to_json(c: Fraction) -> dict:
    # decimal strings keep arbitrary-precision values lossless in JSON
    return {"num": str(c.numerator), "den": str(c.denominator)}


def unipoly_to_json(f: UniPoly) -> list[dict]:
    return [scalar_to_json(c) for c in f.coeffs()]


def bipoly_to_json(f: BiPoly) -> list[dict]:
    return [
        {"i": i, "j": j, "coeff": scalar_to_json(f.coeff(i, j))}
        for (i, j) in sorted(f.support())
    ]


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
        "box_bound": verdict.box_bound,
        "notes": list(verdict.notes),
    }


@dataclass
class AnalysisReport:
    """Losslessly JSON-serializable summary of a full analysis run."""

    input: str
    normal_form: str
    grade_span: dict | None
    h_form: list[dict]
    polygon: dict | None
    verdict: dict
    box_bound: int
    schema: str = SCHEMA_VERSION
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        # every field already holds JSON-ready data, so a shallow copy is
        # enough; dataclasses.asdict would deep-copy all of it
        return dict(vars(self))

    @classmethod
    def from_json_dict(cls, data: dict) -> "AnalysisReport":
        return cls(**data)


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
        notes=list(verdict.notes),
        **facts,
    )


def lattice_sketch(x: WeylElement, polygon: PolygonProfile) -> str:
    """ASCII picture of the support lattice of x with its polygon: '*'
    support points, 'E' points on an edge, 'V' joining vertices.
    Presentation only."""
    pts = x.support()
    if not pts:
        return "(empty support)"
    edge_points = set().union(*(e.support for e in polygon.edges)) if polygon.edges else set()
    vertex_points = {v.point for v in polygon.vertices}
    imax = max(i for i, _ in pts)
    jmax = max(j for _, j in pts)
    rows = []
    for j in range(jmax, -1, -1):
        cells = []
        for i in range(imax + 1):
            pt = (i, j)
            if pt in vertex_points:
                cells.append("V")
            elif pt in edge_points:
                cells.append("E")
            elif pt in pts:
                cells.append("*")
            else:
                cells.append(".")
        rows.append(f"q^{j:<2} | " + " ".join(cells))
    rows.append("      " + "--" * (imax + 1))
    rows.append("       " + " ".join(f"{i}" if i < 10 else "+" for i in range(imax + 1)))
    rows.append("       (p exponent along the bottom; V vertex, E edge point, * support)")
    return "\n".join(rows)


def _emit(payload, as_json: bool, text_lines):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_normalize(args, cap: int) -> int:
    x = element_from_string(args.expr)
    _emit(
        {"input": args.expr, "normal_form": format_element(x)},
        args.json,
        [format_element(x)],
    )
    return 0


def _cmd_commutator(args, cap: int) -> int:
    x = element_from_string(args.left)
    y = element_from_string(args.right)
    result = commutator(x, y)
    _emit(
        {"left": args.left, "right": args.right, "commutator": format_element(result)},
        args.json,
        [format_element(result)],
    )
    return 0


def _cmd_grade(args, cap: int) -> int:
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
        if s > 0:
            tail = f"q^{s}" if s > 1 else "q"
            lines.append(f"  grade {s:+d}: ({f}) * {tail}   [X stands for h]")
        elif s < 0:
            tail = f"p^{-s}" if s < -1 else "p"
            lines.append(f"  grade {s:+d}: ({f}) * {tail}   [X stands for h]")
        else:
            lines.append(f"  grade +0: {f}   [X stands for h]")
    _emit(payload, args.json, lines)
    return 0


def _cmd_polygon(args, cap: int) -> int:
    x = element_from_string(args.expr)
    if x.is_zero():
        raise _UsageError("the zero element has no support polygon")
    profile = ElementProfile(x)
    polygon = profile.polygon
    payload = {
        "input": args.expr,
        "normal_form": format_element(x),
        "polygon": _polygon_to_json(profile),
        "support": [list(pt) for pt in sorted(profile.support)],
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
    _emit(payload, args.json, lines)
    return 0


def _cmd_analyze(args, cap: int) -> int:
    x = element_from_string(args.expr)
    report = build_report(args.expr, x, box=args.box, cap=cap)
    verdict = report.verdict
    lines = [
        f"normal form : {report.normal_form}",
        f"verdict     : {verdict['outcome']}",
    ]
    if verdict["witness"] is not None:
        lines.append(f"witness     : {verdict['witness']}")
    for reason in verdict["reasons"]:
        lines.append(f"rule        : {reason['rule']}  {reason['params']}")
        lines.append(f"              {reason['citation']}")
    if verdict["outcome"] == "unknown":
        lines.append(f"attempted   : {', '.join(verdict['attempted'])}")
        lines.append(f"box bound   : {verdict['box_bound']}")
    for note in report.notes:
        lines.append(f"note        : {note}")
    _emit(report.to_json_dict(), args.json, lines)
    return 0


def _cmd_oracle(args, cap: int) -> int:
    x = element_from_string(args.expr)
    if x.is_zero():
        raise _UsageError("the zero element admits no witness")
    y = find_witness_box(x, args.box, cap=cap)
    payload = {
        "input": args.expr,
        "box": args.box,
        "witness": format_element(y) if y is not None else None,
    }
    if y is not None:
        lines = [f"witness within box {args.box}: {format_element(y)}"]
    else:
        lines = [f"no witness with exponents at most {args.box}"]
    _emit(payload, args.json, lines)
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="weyl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("normalize", help="normal form of an expression")
    sp.add_argument("expr")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_normalize)

    sp = sub.add_parser("commutator", help="[left, right]")
    sp.add_argument("left")
    sp.add_argument("right")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_commutator)

    sp = sub.add_parser("grade", help="graded components, span and h-form")
    sp.add_argument("expr")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_grade)

    sp = sub.add_parser("polygon", help="edges, vertices and lattice sketch")
    sp.add_argument("expr")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_polygon)

    sp = sub.add_parser("analyze", help="run the solvability decision ladder")
    sp.add_argument("expr")
    sp.add_argument("--box", type=int, default=DEFAULT_BOX_BOUND)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_analyze)

    sp = sub.add_parser("oracle", help="witness search in an exponent box")
    sp.add_argument("expr")
    sp.add_argument("--box", type=int, required=True)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cap = _box_cap()
        code = args.func(args, cap)
        sys.stdout.flush()  # a reader that went away shows here, not at exit
        return code
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
