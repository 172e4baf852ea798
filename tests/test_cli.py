"""Command-line behavior: subcommands, JSON schema, exit codes."""

import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings

from weylkit import cli
from weylkit.cli import AnalysisReport, SCHEMA_VERSION, build_report, main
from weylkit import ElementProfile, element_from_string

from strategies import weyl_elements
from test_element import int_str_limit
from test_parser import BAD_INPUTS

# a rational of the report: an integer, or a fraction with a positive denominator
RATIONAL = re.compile(r"-?\d+(/[1-9]\d*)?")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestNormalize:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "q*p")
        assert code == 0
        assert out.strip() == "p*q - 1"

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "normalize", "h^2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload == {"input": "h^2", "normal_form": "p^2*q^2 - p*q"}


class TestCommutator:
    def test_generators(self, capsys):
        code, out, _ = run_cli(capsys, "commutator", "p", "q")
        assert code == 0
        assert out.strip() == "1"

    def test_squares(self, capsys):
        code, out, _ = run_cli(capsys, "commutator", "q^2", "p^2")
        assert code == 0
        assert out.strip() == "-4*p*q + 2"


class TestGrade:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "grade", "p + q^3")
        assert code == 0
        assert "grade span  : [-1, 3]" in out
        assert "grade -1: p" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "grade", "p^2*q^2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["grade_span"] == {"min": 0, "max": 0}
        coeffs = payload["h_form"][0]["coeffs"]
        assert coeffs == ["0", "1", "1"]

    def test_zero_rejected(self, capsys):
        code, _, err = run_cli(capsys, "grade", "0")
        assert code == 1
        assert "zero element" in err


class TestPolygon:
    def test_showcase(self, capsys):
        code, out, _ = run_cli(capsys, "polygon", "p^4+p^3*q+p^2*q^2+q^3+q")
        assert code == 0
        assert "weight (1,2): degree 6" in out
        assert "weight (1,1): degree 4" in out
        assert "point (2, 2) with separating weight (2,3)" in out

    def test_no_edges(self, capsys):
        code, out, _ = run_cli(capsys, "polygon", "p^2*q^2 + p*q + 1")
        assert code == 0
        assert "edges: none" in out

    def test_sketch_marks_support(self, capsys):
        code, out, _ = run_cli(capsys, "polygon", "p^4+p^3*q+p^2*q^2+q^3+q")
        rows = {}
        for line in out.splitlines():
            if line.startswith("q^"):
                j = int(line[2:4].strip())
                rows[j] = line.split("|", 1)[1].split()
        marked = {
            (i, j)
            for j, cells in rows.items()
            for i, cell in enumerate(cells)
            if cell in "*EV"
        }
        assert marked == {(4, 0), (3, 1), (2, 2), (0, 3), (0, 1)}

    @pytest.mark.parametrize("text, rows", [("p^60*q^60", 61), ("p^60 + q", 2)])
    def test_sketch_at_exponent_bound(self, capsys, text, rows):
        code, out, _ = run_cli(capsys, "polygon", text)
        assert code == 0
        assert sum(line.startswith("q^") for line in out.splitlines()) == rows

    @pytest.mark.parametrize("text", ["p^61 + q", "q^61", "p^100000*q^100000", "p^2000*q^2000 + p"])
    def test_sketch_omitted_past_exponent_bound(self, capsys, text):
        # the sketch grows with the square of the largest exponent: the second
        # input would ask for about 10^10 characters, the last printed 8 MB
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "polygon", text)
        assert time.perf_counter() - start < 10
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == f"(sketch omitted: an exponent exceeds {cli.SKETCH_MAX_EXPONENT})"
        assert not any(line.startswith("q^") for line in lines)
        assert len(out) < 1000

    def test_json_power_index(self, capsys):
        code, out, _ = run_cli(capsys, "polygon", "p^2 + 2*p*q^2 + q^4 - 2*q", "--json")
        assert code == 0
        payload = json.loads(out)
        (edge,) = payload["polygon"]["edges"]
        assert edge["weight"] == [2, 1]
        assert edge["power_index"] == 2

    def test_json_non_axis_edge_has_null_index(self, capsys):
        code, out, _ = run_cli(capsys, "polygon", "p^3*q + q^3", "--json")
        assert code == 0
        payload = json.loads(out)
        (edge,) = payload["polygon"]["edges"]
        assert edge["weight"] == [2, 3]
        assert edge["power_index"] is None


class TestAnalyze:
    def test_h_unsolvable(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "h")
        assert code == 0
        assert "verdict     : unsolvable" in out
        assert "axis-power-index-one" in out

    def test_affine_solvable(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "p + q^2")
        assert code == 0
        assert "verdict     : solvable" in out
        assert "witness     : q" in out

    def test_json_schema(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", "h", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["verdict"]["outcome"] == "unsolvable"
        assert payload["verdict"]["reasons"][0]["rule"] == "axis-power-index-one"
        assert payload["box_bound"] == 4

    def test_v3_report_keys(self, capsys):
        # weyl-report/3 carries no notes, and box_bound at the top level only
        code, out, _ = run_cli(capsys, "analyze", "p^2*q^2 - q - 1", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "weyl-report/3"
        assert set(payload) == {
            "schema", "input", "normal_form", "grade_span", "h_form",
            "polygon", "verdict", "box_bound",
        }
        assert set(payload["verdict"]) == {"outcome", "witness", "reasons", "attempted"}
        assert payload["verdict"]["outcome"] == "unknown"
        code, out, _ = run_cli(capsys, "analyze", "p^2*q^2 - q - 1")
        assert code == 0
        assert "verdict     : unknown" in out
        assert "note" not in out
        # every rational is one string in lowest terms, in the h-form and
        # in the edge polynomials
        code, out, _ = run_cli(capsys, "analyze", "1/2*p^2*q^2 + 6/8*p*q^3 - p + 4/6", "--json")
        assert code == 0
        payload = json.loads(out)
        rationals = [c for part in payload["h_form"] for c in part["coeffs"]]
        rationals += [t["coeff"] for e in payload["polygon"]["edges"] for t in e["polynomial"]]
        assert sorted(rationals) == ["-1", "0", "1/2", "1/2", "1/2", "2/3", "3/4", "3/4"]
        for c in rationals:
            assert type(c) is str and RATIONAL.fullmatch(c)
            assert str(Fraction(c)) == c

    def test_box_flag(self, capsys):
        # a dominant point p^2*q^4 with a pure power p: no rule, reduction
        # step or box decides it, so the bound reaches the report as given
        code, out, _ = run_cli(capsys, "analyze", "9*p^2*q^4 - 4*p", "--box", "2", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"]["outcome"] == "unknown"
        assert payload["box_bound"] == 2

    def test_text_builds_no_report(self, capsys, monkeypatch):
        # the text form prints the verdict only, so the h-form and polygon
        # of the report are never built for it
        def forbidden(*args, **kwargs):
            raise AssertionError("build_report called for the text form")
        monkeypatch.setattr(cli, "build_report", forbidden)
        code, out, _ = run_cli(capsys, "analyze", "9*p^2*q^4 - 4*p", "--box", "2")
        assert code == 0
        assert out.splitlines()[-1] == "box bound   : 2"
        code, out, _ = run_cli(capsys, "analyze", "p + q^2")
        assert code == 0 and "witness     : q" in out

    @settings(max_examples=60, deadline=None)
    @given(weyl_elements(max_exp=4, max_terms=5, nonzero=True, fractional=True))
    def test_json_rationals_read_back_exactly(self, x):
        payload = json.loads(json.dumps(build_report(str(x), x, box=2, cap=8).to_json_dict()))
        profile = ElementProfile(x)
        hf, polygon = profile.h_form, profile.polygon
        assert [part["grade"] for part in payload["h_form"]] == hf.grades()
        for part in payload["h_form"]:
            assert [Fraction(c) for c in part["coeffs"]] == list(hf.parts[part["grade"]].coeffs())
        assert len(payload["polygon"]["edges"]) == len(polygon.edges)
        for item, edge in zip(payload["polygon"]["edges"], polygon.edges):
            assert {(t["i"], t["j"]): Fraction(t["coeff"]) for t in item["polynomial"]} == {
                (i, j): edge.polynomial.coeff(i, j) for i, j in edge.polynomial.support()
            }
        rationals = [c for part in payload["h_form"] for c in part["coeffs"]]
        rationals += [t["coeff"] for e in payload["polygon"]["edges"] for t in e["polynomial"]]
        assert all(RATIONAL.fullmatch(c) and str(Fraction(c)) == c for c in rationals)

    def test_report_round_trip(self, capsys):
        x = element_from_string("p^4+p^3*q+p^2*q^2+q^3+q")
        report = build_report("p^4+p^3*q+p^2*q^2+q^3+q", x, box=3, cap=8)
        wire = json.dumps(report.to_json_dict())
        back = AnalysisReport(**json.loads(wire))
        assert back == report
        assert back.to_json_dict() == report.to_json_dict()


class TestLongIntegers:
    # the h-form of p^2000*q^2000 is h(h+1)...(h+1999), whose coefficients
    # have up to 5735 digits: past the default limit of 4300 digits on
    # int-to-str conversion, which the printers convert past on purpose
    TEXT = "p^2000*q^2000 + p"

    def test_reports_print_exactly(self, capsys):
        with int_str_limit(4300):
            code, out, err = run_cli(capsys, "analyze", "--json", "--", self.TEXT)
            assert (code, err) == (0, "")
            payload = json.loads(out)
            code, text, err = run_cli(capsys, "analyze", "--", self.TEXT)
            assert (code, err) == (0, "")
            code, grade, err = run_cli(capsys, "grade", "--", self.TEXT)
            assert (code, err) == (0, "")
        assert payload["verdict"]["outcome"] == "unknown"
        assert "verdict     : unknown" in text
        grade_zero = payload["h_form"][1]
        assert grade_zero["grade"] == 0 and len(grade_zero["coeffs"]) == 2001
        # the coefficient of h is 1999!, 5733 digits
        assert len(grade_zero["coeffs"][1]) == 5733
        with int_str_limit(0):
            assert int(grade_zero["coeffs"][1]) == factorial(1999)
            assert f" + {factorial(1999)}*X   [X stands for h]\n" in grade


class TestOracle:
    def test_witness_found(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "q", "--box", "1")
        assert code == 0
        assert out.strip() == "witness within box 1: -p"

    def test_no_witness(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "h", "--box", "3")
        assert code == 0
        assert "no witness with exponents at most 3" in out

    def test_box_required(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "q")
        assert code == 1
        assert "--box" in err

    def test_cap_enforced(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "q", "--box", "9")
        assert code == 1
        assert "cap 8" in err

    def test_env_cap_override(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYL_BOX_CAP", "9")
        code, out, _ = run_cli(capsys, "oracle", "q", "--box", "9")
        assert code == 0
        assert "witness" in out

    def test_env_cap_lowering(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYL_BOX_CAP", "2")
        code, _, err = run_cli(capsys, "oracle", "q", "--box", "3")
        assert code == 1
        assert "cap 2" in err

    def test_zero_rejected(self, capsys):
        code, out, err = run_cli(capsys, "oracle", "--box", "4", "--", "0")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "zero element" in err and err.count("\n") == 1


class TestBoxBound:
    """The box bound is checked before any rule runs, so a structural
    verdict cannot carry a box the oracle would have refused."""

    def assert_usage_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    def test_negative_box(self, capsys):
        self.assert_usage_error(capsys, "analyze", "q^3", "--box", "-1", "--json")

    def test_box_above_cap(self, capsys):
        self.assert_usage_error(capsys, "analyze", "q^3", "--box", "9", "--json")

    def test_negative_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("WEYL_BOX_CAP", "-3")
        self.assert_usage_error(capsys, "analyze", "q^3", "--json")

    @pytest.mark.parametrize("argv", [("analyze", "q^3"), ("oracle", "--box", "2", "--", "q^3")])
    def test_malformed_env_cap(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("WEYL_BOX_CAP", "abc")
        self.assert_usage_error(capsys, *argv)

    @pytest.mark.parametrize("argv", [("normalize", "p"), ("commutator", "p", "q"),
                                      ("grade", "h"), ("polygon", "p*q + q^3")])
    def test_malformed_env_cap_ignored_where_unused(self, capsys, monkeypatch, argv):
        # only analyze and oracle read the cap
        monkeypatch.setenv("WEYL_BOX_CAP", "abc")
        code, out, err = run_cli(capsys, *argv)
        assert code == 0
        assert out and err == ""


class TestHelp:
    # the argument surface: each subcommand's arguments in their order
    USAGE = {
        "normalize": "usage: weyl normalize [-h] [--json] expr",
        "commutator": "usage: weyl commutator [-h] [--json] left right",
        "grade": "usage: weyl grade [-h] [--json] expr",
        "polygon": "usage: weyl polygon [-h] [--json] expr",
        "analyze": "usage: weyl analyze [-h] [--box BOX] [--json] expr",
        "oracle": "usage: weyl oracle [-h] --box BOX [--json] expr",
    }

    def help_lines(self, capsys, monkeypatch, *argv):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
        with pytest.raises(SystemExit) as info:
            main([*argv, "--help"])
        assert info.value.code == 0
        return capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("command", list(USAGE))
    def test_subcommand_usage(self, capsys, monkeypatch, command):
        assert self.help_lines(capsys, monkeypatch, command)[0] == self.USAGE[command]

    def test_subcommands_listed_in_order(self, capsys, monkeypatch):
        lines = self.help_lines(capsys, monkeypatch)
        assert lines[0] == "usage: weyl [-h] {normalize,commutator,grade,polygon,analyze,oracle} ..."
        listed = [line.split(None, 1) for line in lines if line.startswith("    ")]
        assert listed == [
            ["normalize", "normal form of an expression"],
            ["commutator", "[left, right]"],
            ["grade", "graded components, span and h-form"],
            ["polygon", "edges, vertices and lattice sketch"],
            ["analyze", "run the solvability decision ladder"],
            ["oracle", "witness search in an exponent box"],
        ]


class TestExitCodes:
    @pytest.mark.parametrize("text", BAD_INPUTS)
    def test_malformed_expressions_exit_one(self, capsys, text):
        code, _, err = run_cli(capsys, "normalize", text)
        assert code == 1
        assert err.strip()

    def test_unknown_subcommand_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "frobnicate", "p")
        assert code == 1

    def test_missing_argument_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "commutator", "p")
        assert code == 1

    def test_success_exits_zero(self, capsys):
        code, _, _ = run_cli(capsys, "normalize", "p")
        assert code == 0

    def test_unexpected_exception_exits_two_without_traceback(self, capsys, monkeypatch):
        def broken(args):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(cli, "_cmd_normalize", broken)
        code, out, err = run_cli(capsys, "normalize", "p")
        assert code == 2
        assert out == ""
        assert err == "internal error: ZeroDivisionError: division by zero\n"

    @pytest.mark.parametrize("argv", [("analyze", "--json", "--", "p + q^2"), ("normalize", "p*q")])
    def test_closed_stdout_pipe_exits_one_quietly(self, argv):
        # the reader closes before the child writes: every write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        try:
            proc = subprocess.run([sys.executable, "-m", "weylkit", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        assert proc.stderr == ""


class TestVerdictSurveyScript:
    @pytest.mark.parametrize("count", ["0", "-3"])
    def test_count_below_one_exits_one_with_one_line(self, count):
        script = Path(__file__).resolve().parents[1] / "scripts" / "verdict_survey.py"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, str(script), "--count", count],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == f"error: --count must be at least 1, got {count}\n"


class TestOracleLayersScript:
    def test_layer_table(self):
        script = Path(__file__).resolve().parents[1] / "scripts" / "oracle_layers.py"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, str(script), "--boxes", "8", "--repeat", "1"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rows = {line[:22].split()[0]: line.split() for line in proc.stdout.splitlines()[1:]}
        assert len(rows) == 4
        # 81 columns, 125 rows and 578 nonzeros, of which the peel leaves 19
        # x 34 / 120 to the elimination, whose pivot rows reach 6 bits; h is
        # decided by the peel
        assert rows["p^3*q^2+q^4+p^2"][2:12] == ["81", "x", "125", "/", "578", "19", "x", "34", "/", "120"]
        assert rows["p^3*q^2+q^4+p^2"][12:14] == ["6", "no"]
        assert rows["p+q^2"][13] == "yes"
        assert rows["h"][12:14] == ["-", "no"]
        # 17 pivots on the 19 columns the peel leaves, and an entry of 11
        # bits; the peel decides h alone, so it has no rank
        assert rows["p^3*q^2+q^4+p^2"][16:] == ["17", "11"]
        assert rows["h"][16:] == ["-", "1"]
