"""Value semantics of the kit's record types: equality within one type only,
hashing, immutability, the field-by-field repr, constructor order and
defaults, copying; and what importing the command line loads."""

import copy
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from weylkit import (
    P,
    BiPoly,
    Edge,
    ElementProfile,
    GradeSpan,
    HForm,
    HomogShape,
    Outcome,
    PolygonProfile,
    RuleCitation,
    RuleId,
    UniPoly,
    Verdict,
    Vertex,
    Weight,
    WeylElement,
)
from weylkit.cli import AnalysisReport, build_report


def _edge():
    return Edge(Weight(1, 1), frozenset({(1, 0), (0, 1)}), BiPoly({(1, 0): 1, (0, 1): 1}), 1)


def _report():
    r = build_report("p", P, 4, 8)
    return r, tuple(r.to_json_dict().values())


# each maker returns a fresh value, equal to the one before, and its fields in order
MAKERS = {
    "GradeSpan": lambda: (GradeSpan(-1, 2), (-1, 2)),
    "HForm": lambda: (HForm({0: UniPoly([1, 2])}), ({0: UniPoly([1, 2])},)),
    "Weight": lambda: (Weight(1, 2), (1, 2)),
    "Edge": lambda: (_edge(), (Weight(1, 1), frozenset({(1, 0), (0, 1)}), BiPoly({(1, 0): 1, (0, 1): 1}), 1)),
    "Vertex": lambda: (Vertex((1, 1), Weight(1, 2)), ((1, 1), Weight(1, 2))),
    "PolygonProfile": lambda: (PolygonProfile((_edge(),), ()), ((_edge(),), ())),
    "HomogShape": lambda: (HomogShape(1, 0, 1, (1, 2), Weight(2, 1)), (1, 0, 1, (1, 2), Weight(2, 1))),
    "RuleCitation": lambda: (
        RuleCitation(RuleId.CONSTANT_ELEMENT, {"c": 1}, "a constant"),
        (RuleId.CONSTANT_ELEMENT, {"c": 1}, "a constant"),
    ),
    "Verdict": lambda: (
        Verdict(Outcome.UNKNOWN, attempted=(RuleId.CONSTANT_ELEMENT,)),
        (Outcome.UNKNOWN, None, (), (RuleId.CONSTANT_ELEMENT,)),
    ),
    "AnalysisReport": lambda: _report(),
}
# a dict field (or, for the mutable report, the type itself) makes a value unhashable
UNHASHABLE = {"HForm", "RuleCitation", "AnalysisReport"}
FROZEN = sorted(set(MAKERS) - {"AnalysisReport"})
# the element types, which the records hold as fields
ELEMENTS = {
    "WeylElement": lambda: WeylElement({(2, 1): Fraction(-3, 4), (0, 0): 5}),
    "BiPoly": lambda: BiPoly({(1, 2): Fraction(2, 3), (3, 0): -1}),
    "UniPoly": lambda: UniPoly([Fraction(1, 2), 0, 3]),
}


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_equal_values_compare_and_hash_equal(name):
    (a, _), (b, _) = MAKERS[name](), MAKERS[name]()
    assert a is not b
    assert a == b and not a != b
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_value_never_equals_a_tuple(name):
    v, fields = MAKERS[name]()
    assert v != fields and fields != v
    assert (v == fields) is False


def test_types_with_the_same_fields_differ():
    assert Weight(1, 2) != GradeSpan(1, 2)


@pytest.mark.parametrize("name", FROZEN)
def test_fields_cannot_be_set_or_deleted(name):
    v, _ = MAKERS[name]()
    before = repr(v)
    field = repr(v).split("(", 1)[1].split("=", 1)[0]
    with pytest.raises(AttributeError):
        setattr(v, field, 0)
    with pytest.raises(AttributeError):
        delattr(v, field)
    with pytest.raises(AttributeError):
        v.extra = 0
    assert repr(v) == before


@pytest.mark.parametrize("name", sorted(MAKERS) + sorted(ELEMENTS))
def test_values_copy_and_pickle(name):
    v = ELEMENTS[name]() if name in ELEMENTS else MAKERS[name]()[0]
    for out in (copy.copy(v), copy.deepcopy(v), pickle.loads(pickle.dumps(v))):
        assert type(out) is type(v) and out == v


def test_repr_names_each_field():
    assert repr(Weight(1, 2)) == "Weight(rho=1, sigma=2)"
    assert repr(GradeSpan(-1, 2)) == "GradeSpan(min_grade=-1, max_grade=2)"
    assert repr(Vertex((1, 1), Weight(1, 2))) == "Vertex(point=(1, 1), separating_weight=Weight(rho=1, sigma=2))"
    assert repr(HomogShape(1, 0, 1, (1, 2), Weight(2, 1))) == (
        "HomogShape(x_mult=1, y_mult=0, den=1, nums=(1, 2), weight=Weight(rho=2, sigma=1))"
    )
    assert repr(RuleCitation(RuleId.CONSTANT_ELEMENT, {}, "c")) == (
        "RuleCitation(rule=<RuleId.CONSTANT_ELEMENT: 'constant-element'>, params={}, citation='c')"
    )


def test_verdict_ignores_its_profile():
    bare = Verdict(Outcome.UNKNOWN, attempted=(RuleId.CONSTANT_ELEMENT,))
    held = Verdict(Outcome.UNKNOWN, attempted=(RuleId.CONSTANT_ELEMENT,), profile=ElementProfile(P))
    assert held == bare and hash(held) == hash(bare)
    assert held.profile is not None
    assert repr(held) == repr(bare) == (
        "Verdict(outcome=<Outcome.UNKNOWN: 'unknown'>, witness=None, reasons=(), "
        "attempted=(<RuleId.CONSTANT_ELEMENT: 'constant-element'>,))"
    )
    assert held != Verdict(Outcome.UNKNOWN)


def test_constructor_order_and_defaults():
    w, sup, poly = Weight(1, 1), frozenset({(1, 0), (0, 1)}), BiPoly({(1, 0): 1, (0, 1): 1})
    e = Edge(w, sup, poly, 1)
    assert (e.weight, e.support, e.polynomial, e.degree) == (w, sup, poly, 1)
    assert Edge(weight=w, support=sup, polynomial=poly, degree=1) == e
    v = Verdict(Outcome.SOLVABLE)
    assert (v.witness, v.reasons, v.attempted, v.profile) == (None, (), (), None)
    assert Verdict(Outcome.SOLVABLE, P, (), (RuleId.AFFINE_FAMILY,)).attempted == (RuleId.AFFINE_FAMILY,)
    assert Verdict(outcome=Outcome.SOLVABLE, attempted=(RuleId.AFFINE_FAMILY,)).attempted == (RuleId.AFFINE_FAMILY,)
    assert not hasattr(v, "box_bound")
    s = HomogShape(x_mult=1, y_mult=2, den=3, nums=(4, 5), weight=Weight(2, 1))
    assert (s.x_mult, s.y_mult, s.den, s.nums, s.weight) == (1, 2, 3, (4, 5), Weight(2, 1))
    with pytest.raises(TypeError):
        Weight(1)
    with pytest.raises(TypeError):
        Verdict()


def test_weight_checks_its_components():
    for rho, sigma in ((2, 4), (0, 1), (1, -1), (1.0, 2), ("1", 2)):
        with pytest.raises(ValueError):
            Weight(rho, sigma)
    w = Weight(True, 3)
    assert type(w.rho) is int and w == Weight(1, 3) and repr(w) == "Weight(rho=1, sigma=3)"


def test_h_form_owns_its_parts():
    src = {0: UniPoly([1, 2])}
    hf = HForm(src)
    src[1] = UniPoly([3])
    assert hf.parts == {0: UniPoly([1, 2])} and hf.grades() == [0]
    with pytest.raises(ValueError):
        HForm({0: UniPoly([0])})


def test_analysis_report_round_trip():
    report = build_report("p", P, 4, 8)
    assert AnalysisReport(**report.to_json_dict()) == report
    other = AnalysisReport(**{**report.to_json_dict(), "box_bound": 5})
    assert other != report and other.box_bound == 5
    data = report.to_json_dict()
    data.pop("schema")
    assert AnalysisReport(**data) == report


def test_cli_import_loads_no_dataclasses_or_typing():
    # building the value types by hand keeps these modules (and the code
    # dataclasses generates) out of every start of the command line
    root = Path(__file__).resolve().parents[1]
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(root / 'src')!r})\n"
        "before = set(sys.modules)\n"
        "import weylkit.cli\n"
        "added = sorted({'dataclasses', 'inspect', 'typing', 'ast'} & (set(sys.modules) - before))\n"
        "sys.exit(f'loaded {added}' if added else 0)\n"
    )
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], cwd=root, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
