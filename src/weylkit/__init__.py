"""weylkit: exact arithmetic and a certified solvability analyzer for the
first Weyl algebra over the rationals."""

from .element import (
    H,
    ONE,
    P,
    Q,
    WeylElement,
    WeylInternalError,
    as_scalar,
    commutator,
    format_element,
    mul,
    normalize_qp,
    power,
)
from .grading import (
    GradeSpan,
    HForm,
    exp_ad,
    grade_components,
    grade_span,
    omega,
    to_h_form,
)
from .parser import ExprSyntaxError, element_from_string
from .polygon import (
    Edge,
    PolygonProfile,
    Vertex,
    Weight,
    edges,
    separating_weight,
    weight_polynomial,
)
from .polynomials import BiPoly, UniPoly
from .power_analysis import HomogShape, dehomogenize, power_index
from .solvability import (
    DEFAULT_BOX_BOUND,
    DEFAULT_BOX_CAP,
    ElementProfile,
    Outcome,
    RuleCitation,
    RuleId,
    Verdict,
    analyze,
    find_witness_box,
    verify_witness,
    witness_for_affine,
)

__all__ = [name for name in dir() if not name.startswith("_")]
