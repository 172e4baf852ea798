"""The public surface of the package, pinned so that adding or removing a
public name is a visible edit here."""

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
    "ExprSyntaxError", "element_from_string", "eval_ast", "parse_expr",
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
    assert len(PUBLIC_NAMES) == 61
    assert set(weylkit.__all__) == PUBLIC_NAMES
