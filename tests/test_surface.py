"""The public surface of the package, pinned so that adding or removing a
public name is a visible edit here."""

import subprocess
import sys
from pathlib import Path

import weylkit

PUBLIC_NAMES = {
    # modules
    "element", "grading", "parser", "polygon", "polynomials", "power_analysis", "solvability",
    # element
    "H", "ONE", "P", "Q", "WeylElement", "WeylInternalError", "ad_power", "as_scalar",
    "commutator", "format_element", "mul", "normalize_qp", "power", "substitute_poly",
    # grading
    "GradeSpan", "HForm", "exp_ad", "from_h_form", "grade_components", "grade_span", "omega",
    "to_h_form",
    # parser
    "ExprSyntaxError", "element_from_string",
    # polygon
    "NEG_INF", "Edge", "PolygonProfile", "Vertex", "Weight", "convex_hull", "edges",
    "leading_split", "separating_weight", "weight_degree", "weight_polynomial", "weight_support",
    # polynomials
    "BiPoly", "UniPoly",
    # power_analysis
    "HomogShape", "dehomogenize", "power_index",
    # solvability
    "DEFAULT_BOX_BOUND", "DEFAULT_BOX_CAP", "ElementProfile", "Outcome", "RuleCitation",
    "RuleId", "Verdict", "analyze", "find_witness_box", "verify_witness", "witness_for_affine",
}


def test_public_names_are_pinned():
    assert len(PUBLIC_NAMES) == 59
    assert set(weylkit.__all__) == PUBLIC_NAMES


def test_oracles_import_without_test_modules():
    # the benchmark imports tests.oracles with only the repository root and
    # src/ on the path, so a module-level import there of a sibling test
    # module, or of Hypothesis, would fail every benchmark run
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path[:0] = [{str(root)!r}, {str(root / 'src')!r}]\n"
        "import tests.oracles\n"
        "loaded = sorted(m for m in ('strategies', 'hypothesis') if m in sys.modules)\n"
        "sys.exit(f'loaded {loaded}' if loaded else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code], cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
