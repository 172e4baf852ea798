"""The public surface of the package, pinned so that adding or removing a
public name is a visible edit here, and the names the benchmark looks up."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import weylkit

import oracles

ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    # modules
    "element", "grading", "parser", "polygon", "polynomials", "power_analysis", "solvability",
    # element
    "H", "ONE", "P", "Q", "WeylElement", "WeylInternalError", "as_scalar", "commutator",
    "format_element", "mul", "normalize_qp", "power",
    # grading
    "GradeSpan", "HForm", "exp_ad", "grade_components", "grade_span", "omega", "to_h_form",
    # parser
    "ExprSyntaxError", "element_from_string",
    # polygon
    "Edge", "PolygonProfile", "Vertex", "Weight", "edges", "separating_weight",
    "weight_polynomial",
    # polynomials
    "BiPoly", "UniPoly",
    # power_analysis
    "HomogShape", "dehomogenize", "power_index",
    # solvability
    "DEFAULT_BOX_BOUND", "DEFAULT_BOX_CAP", "ElementProfile", "Outcome", "RuleCitation",
    "RuleId", "Verdict", "analyze", "find_witness_box", "verify_witness", "witness_for_affine",
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 51
    assert set(weylkit.__all__) == PUBLIC_NAMES


# what perfbench/workloads.py reads from the library, by module and attribute
WORKLOAD_NAMES = [
    ("weylkit.element", "format_element"),
    ("weylkit.element", "WeylElement"),
    ("weylkit.element", "Q"),
    ("weylkit.grading", "exp_ad"),
    ("weylkit.grading", "omega"),
    ("weylkit.parser", "element_from_string"),
    ("weylkit.cli", "build_report"),
    ("weylkit.solvability", "analyze"),
    ("weylkit.solvability", "find_witness_box"),
    ("weylkit.solvability", "DEFAULT_BOX_CAP"),
]


def test_benchmark_lookups_resolve():
    # perfbench looks these up by name, so deleting one would otherwise
    # show only when the benchmark runs; its tracer imports only the stdlib
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = [(module, attr) for _, module, attr in tracer.TRACED]
    missing = [f"{module}.{attr}" for module, attr in traced + WORKLOAD_NAMES
               if not hasattr(importlib.import_module(module), attr)]
    assert not missing
    assert all(callable(getattr(importlib.import_module(module), attr)) for module, attr in traced)
    assert callable(oracles.naive_box_witness) and callable(oracles.rewrite_normal_qp)


def test_oracles_import_without_test_modules():
    # the benchmark imports tests.oracles with only the repository root and
    # src/ on the path, so a module-level import there of a sibling test
    # module, or of Hypothesis, would fail every benchmark run
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(ROOT)!r}, {str(ROOT / 'src')!r}]\n"
        "import tests.oracles\n"
        "loaded = sorted(m for m in ('strategies', 'hypothesis') if m in sys.modules)\n"
        "sys.exit(f'loaded {loaded}' if loaded else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
