"""In-memory span tracer for the traced benchmark run.

The tracer wraps public library functions by rebinding every module-level
name that refers to them, so calls made through `from .element import mul`
copies are caught as well as calls through the defining module.  Each call
records a span (name, start, end, parent span, operation id) in flat arrays
that stay in memory until the run writes them out.  Self time is a span's
duration minus the time its direct children cover; spans nest strictly in a
single thread, so that cover is the sum of the children's durations.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter, defaultdict

# (metric prefix, module, attribute) of every wrapped function
TRACED = (
    ("element.mul", "weylkit.element", "mul"),
    ("element.commutator", "weylkit.element", "commutator"),
    ("grading.to_h_form", "weylkit.grading", "to_h_form"),
    ("grading.exp_ad", "weylkit.grading", "exp_ad"),
    ("grading.omega", "weylkit.grading", "omega"),
    ("polygon.edges", "weylkit.polygon", "edges"),
    ("polygon.weight_polynomial", "weylkit.polygon", "weight_polynomial"),
    ("power_analysis.power_index", "weylkit.power_analysis", "power_index"),
    ("solvability.analyze", "weylkit.solvability", "analyze"),
    ("solvability.find_witness_box", "weylkit.solvability", "find_witness_box"),
    ("solvability.verify_witness", "weylkit.solvability", "verify_witness"),
    ("parser.element_from_string", "weylkit.parser", "element_from_string"),
    ("cli.build_report", "weylkit.cli", "build_report"),
)

RULE_IDS = (
    "constant-element",
    "low-grade-band",
    "homogeneous-high-degree",
    "polynomial-in-generator",
    "linear-in-generator",
    "affine-family",
    "non-axis-edge",
    "axis-power-index-one",
    "edge-gcd-one",
    "oracle-witness",
    "unknown",
)

ORACLE_BOXES = (8, 12)

FWB = "solvability.find_witness_box"

# per-layer metrics that are exact counts; they must repeat exactly
EXACT_KEYS = tuple(f"{name}.calls" for name, _, _ in TRACED) + (
    "element.mul.term_pairs",
    f"{FWB}.rows",
    f"{FWB}.cols",
    f"{FWB}.nnz",
    "power_analysis.power_index.distinct_share",
) + tuple(f"solvability.decided_by.{rule}" for rule in RULE_IDS)


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for name, _, _ in TRACED:
        names += [f"{name}.calls", f"{name}.self_s", f"{name}.self_share"]
    names += [
        f"{FWB}.build_s",
        f"{FWB}.verify_s",
        f"{FWB}.rows",
        f"{FWB}.cols",
        f"{FWB}.nnz",
        "element.mul.term_pairs",
        "power_analysis.power_index.distinct_share",
    ]
    names += [f"solvability.decided_by.{rule}" for rule in RULE_IDS]
    names += [f"oracle_box{n}_s" for n in ORACLE_BOXES]
    names += ["cli.op_ms", "cli.interpreter_ms", "cli.import_ms", "cli.main_ms"]
    names += ["trace.overhead_share", "trace.op_s", "trace.spans"]
    return names


class _Frame:
    __slots__ = ("index", "nid", "child", "start", "end", "brackets")

    def __init__(self, index: int, nid: int):
        self.index = index
        self.nid = nid
        self.child = 0.0
        self.brackets = None


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.op = -1
        self._stack: list[_Frame] = []
        self._installed: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Clear the aggregates (not the spans) before a new pass."""
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.edge_s: defaultdict = defaultdict(float)  # (parent name, child name)
        self.counts: Counter = Counter()
        self.box_s: defaultdict = defaultdict(float)
        self.power_keys: set = set()
        self.op_s = 0.0
        self.pass_spans = 0

    def _nid(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, name_id: int) -> _Frame:
        stack = self._stack
        frame = _Frame(len(self.span_name), name_id)
        self.span_name.append(name_id)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(stack[-1].index if stack else -1)
        self.span_op.append(self.op)
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame, start: float, end: float) -> _Frame | None:
        stack = self._stack
        stack.pop()
        parent = stack[-1] if stack else None
        dur = end - start
        frame.start, frame.end = start, end
        self.span_start[frame.index] = start
        self.span_end[frame.index] = end
        self.calls[frame.nid] += 1
        self.self_s[frame.nid] += dur - frame.child
        self.pass_spans += 1
        if parent is not None:
            parent.child += dur
            self.edge_s[(parent.nid, frame.nid)] += dur
        return parent

    def run_op(self, op_id: int, label: str, fn, *args):
        """Run one benchmark operation as a root span."""
        self.op = op_id
        frame = self._open(self._nid(label))
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self._close(frame, start, end)
            self.op_s += end - start

    def _wrapper(self, name: str, fn):
        nid = self._nid(name)
        hook = _HOOKS.get(name)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            frame = tracer._open(nid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                parent = tracer._close(frame, start, end)
            if hook is not None:
                hook(tracer, frame, parent, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, module_name, attr in TRACED:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrapper(name, original)
            for mod_name, module in list(sys.modules.items()):
                if module is None or not (mod_name == "weylkit" or mod_name.startswith("weylkit.")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._installed.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._installed):
            setattr(module, key, original)
        self._installed.clear()

    def snapshot(self) -> dict:
        """Per-layer metrics of the pass since the last reset()."""
        out: dict[str, float] = {}
        total = self.op_s or 1.0
        for name, _, _ in TRACED:
            nid = self._nid(name)
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
            out[f"{name}.self_share"] = self.self_s[nid] / total
        fwb = self._nid(FWB)
        out[f"{FWB}.build_s"] = self.edge_s[(fwb, self._nid("element.commutator"))]
        out[f"{FWB}.verify_s"] = self.edge_s[(fwb, self._nid("solvability.verify_witness"))]
        for key in ("rows", "cols", "nnz"):
            out[f"{FWB}.{key}"] = self.counts[key]
        out["element.mul.term_pairs"] = self.counts["term_pairs"]
        pi_calls = self.calls[self._nid("power_analysis.power_index")]
        out["power_analysis.power_index.distinct_share"] = (
            len(self.power_keys) / pi_calls if pi_calls else 0.0
        )
        for rule in RULE_IDS:
            out[f"solvability.decided_by.{rule}"] = self.counts[f"decided:{rule}"]
        for n in ORACLE_BOXES:
            out[f"oracle_box{n}_s"] = self.box_s[n]
        out["trace.op_s"] = self.op_s
        out["trace.spans"] = self.pass_spans
        return out

    def write(self, path) -> None:
        """Write every recorded span as one JSON document."""
        doc = {
            "names": self.names,
            "columns": ["name", "start", "end", "parent", "op"],
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _mul_hook(tracer, frame, parent, args, kwargs, result):
    x, y = args
    tracer.counts["term_pairs"] += len(x.support()) * len(y.support())


def _commutator_hook(tracer, frame, parent, args, kwargs, result):
    # a bracket built directly by the box oracle is one column of its system
    if parent is not None and parent.nid == tracer._nid(FWB):
        if parent.brackets is None:
            parent.brackets = []
        parent.brackets.append(result.support())


def _find_witness_box_hook(tracer, frame, parent, args, kwargs, result):
    brackets = frame.brackets or []
    rows = set().union(*brackets) | {(0, 0)}
    tracer.counts["cols"] += len(brackets)
    tracer.counts["rows"] += len(rows)
    tracer.counts["nnz"] += sum(len(b) for b in brackets)
    box = args[1] if len(args) > 1 else kwargs["box"]
    tracer.box_s[box] += frame.end - frame.start


def _analyze_hook(tracer, frame, parent, args, kwargs, result):
    rule = result.reasons[0].rule.value if result.reasons else "unknown"
    tracer.counts[f"decided:{rule}"] += 1


def _power_index_hook(tracer, frame, parent, args, kwargs, result):
    # the same leading polynomial seen again at another weight within one
    # operation is repeated work: its power index cannot change
    tracer.power_keys.add((tracer.op, frozenset(args[0].terms().items())))


_HOOKS = {
    "element.mul": _mul_hook,
    "element.commutator": _commutator_hook,
    FWB: _find_witness_box_hook,
    "solvability.analyze": _analyze_hook,
    "power_analysis.power_index": _power_index_hook,
}
