"""The benchmark workloads: their inputs, their operation and the checks
on its outputs.

Each workload is built from the library modules loaded during set-up and a
corpus seed.  `items` is one pass over the workload's inputs; the runner
repeats passes, each in an order drawn from the run seed.  `run(item)` is
the timed operation.  `check(results)` runs after the timed region and
returns, per item index, the problems found in its output.  All library functions are looked up on their modules at call time,
so the traced run sees the calls it rebinds.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import independent

RULE_IDS = {
    "constant-element", "low-grade-band", "homogeneous-high-degree",
    "polynomial-in-generator", "linear-in-generator", "affine-family",
    "non-axis-edge", "axis-power-index-one", "edge-gcd-one", "oracle-witness",
}


def _verdict_problems(outcome, rule, has_witness) -> list[str]:
    """Shape rules every verdict obeys: solvable carries a witness and a
    rule, unsolvable a rule and no witness, unknown neither."""
    if outcome == "solvable" and has_witness and rule in RULE_IDS:
        return []
    if outcome == "unsolvable" and not has_witness and rule in RULE_IDS:
        return []
    if outcome == "unknown" and not has_witness and rule is None:
        return []
    return [f"malformed verdict: outcome {outcome}, rule {rule}, witness {has_witness}"]


class Survey:
    """text -> element_from_string -> build_report(box=4) -> json.dumps,
    which is `weyl analyze --json` run in-process."""

    name = "survey"
    default_seed = 7
    held_out_seed = 1007
    size = 1000
    box = 4
    min_passes = 2
    # inputs the traced run also sends through the `weyl` command line
    cli_inputs = 20

    def __init__(self, lib, seed: int, root: str):
        self.lib = lib
        self.cap = lib.solvability.DEFAULT_BOX_CAP
        rng = random.Random(seed)
        self.elements = [self._random_element(rng) for _ in range(self.size)]
        self.items = [lib.element.format_element(x) for x in self.elements]

    def _random_element(self, rng, max_exp=4, max_terms=5, coeff_bound=9):
        # the generator of scripts/verdict_survey.py: seed 7 gives its corpus
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            c = rng.randint(-coeff_bound, coeff_bound)
            if c:
                terms[(rng.randint(0, max_exp), rng.randint(0, max_exp))] = c
        return self.lib.element.WeylElement(terms)

    def run(self, text: str) -> str:
        x = self.lib.parser.element_from_string(text)
        report = self.lib.cli.build_report(text, x, box=self.box, cap=self.cap)
        return json.dumps(report.to_json_dict(), indent=2, sort_keys=True)

    def summary(self, out: str) -> tuple:
        verdict = json.loads(out)["verdict"]
        rule = verdict["reasons"][0]["rule"] if verdict["reasons"] else None
        return verdict["outcome"], rule, verdict["witness"]

    def check(self, results: dict) -> dict:
        problems = {}
        parse = self.lib.parser.element_from_string
        for idx, out in results.items():
            x = self.elements[idx]
            outcome, rule, witness = self.summary(out)
            found = _verdict_problems(outcome, rule, witness is not None)
            if parse(self.items[idx]) != x:
                found.append("input text does not parse back to the generated element")
            if json.loads(out)["box_bound"] != self.box:
                found.append("report box_bound differs from the box asked for")
            if witness is not None and not independent.bracket_is_one(x, parse(witness)):
                found.append(f"witness {witness} fails the independent check")
            if found:
                problems[idx] = found
        return problems

    def decided(self, out: str) -> bool:
        return self.summary(out)[0] != "unknown"


# map kinds for the orbit corpus: omega, or exp_ad(g) with g on an axis and
# of degree 2 or 3
_KINDS = ("omega", ("p", 2), ("p", 3), ("q", 2), ("q", 3))


def _reduced_patterns(state: str, length: int = 3) -> list[tuple]:
    """Every sequence of map kinds that acts as a word of exactly `length`
    maps on a source element lying on axis `state`.

    A map is dropped when it would fix the element (exp_ad on the axis the
    element lies on) or merge with the previous map (omega after omega;
    exp_ad on the axis of the last exp_ad, tracked through omega, which
    swaps the axes).
    """
    out = []

    def walk(prefix, state, last_axis):
        if len(prefix) == length:
            out.append(tuple(prefix))
            return
        for kind in _KINDS:
            if kind == "omega":
                if prefix and prefix[-1] == "omega":
                    continue
                swap = {"p": "q", "q": "p"}
                walk(prefix + [kind], swap.get(state, state), swap.get(last_axis))
            else:
                axis = kind[0]
                if axis == state or axis == last_axis:
                    continue
                walk(prefix + [kind], "mixed", axis)

    walk([], state, None)
    return out


# words that leave q^k + q a polynomial in one generator, since omega maps
# Q[q] onto Q[p] and exp_ad(g) fixes what lies on the axis of g; the ladder
# decides their images unsolvable, while it leaves every reduced image of
# q^k + q unknown, so these keep unsolvable verdicts under the truth check
_DECIDED_Q_PATTERNS = (
    ("omega",), ("omega", ("p", 2)), ("omega", ("p", 3)), (("q", 2), "omega"), (("q", 3), "omega"),
)


@dataclass(frozen=True)
class OrbitItem:
    truth: str  # "solvable" for phi(p), "unsolvable" for phi(q^k + q)
    source: dict  # terms of p or of q^k + q
    maps: tuple  # ("omega", None) or ("exp_ad", terms of g)


class Orbit:
    """Ground truth by construction: phi(p) is solvable with witness phi(q),
    and phi(q^k + q) is unsolvable because automorphisms preserve
    solvability.  One operation builds phi(x) and calls analyze(x, box=4)."""

    name = "orbit"
    default_seed = 11
    held_out_seed = 1011
    box = 4
    min_passes = 3

    def __init__(self, lib, seed: int, root: str):
        self.lib = lib
        self.cap = lib.solvability.DEFAULT_BOX_CAP
        rng = random.Random(seed)
        # every reduced pattern appears in the same proportion, so the mix
        # of shapes does not change with the seed
        ps = _reduced_patterns("p") * 2
        qs = [(pat, k) for pat in _reduced_patterns("q") for k in (2, 3)]
        qs += [(pat, k) for pat in _DECIDED_Q_PATTERNS for k in (2, 3)]
        rng.shuffle(ps)
        rng.shuffle(qs)
        self.items = [OrbitItem("solvable", {(1, 0): 1}, self._maps(rng, pat)) for pat in ps]
        self.items += [OrbitItem("unsolvable", {(0, k): 1, (0, 1): 1}, self._maps(rng, pat))
                       for pat, k in qs]

    def _maps(self, rng, pattern) -> tuple:
        maps = []
        for kind in pattern:
            if kind == "omega":
                maps.append(("omega", None))
                continue
            axis, deg = kind
            coeffs = [rng.randint(-3, 3) for _ in range(deg)]
            coeffs.append(rng.choice([c for c in range(-3, 4) if c]))
            terms = {((e, 0) if axis == "p" else (0, e)): c for e, c in enumerate(coeffs) if c}
            maps.append(("exp_ad", terms))
        return tuple(maps)

    def apply(self, item: OrbitItem, x):
        grading, element = self.lib.grading, self.lib.element.WeylElement
        for kind, g in item.maps:
            x = grading.omega(x) if kind == "omega" else grading.exp_ad(element(g), x)
        return x

    def run(self, item: OrbitItem):
        # the elements are built afresh from their terms in every operation,
        # so nothing kept on an element object carries over between passes
        x = self.apply(item, self.lib.element.WeylElement(item.source))
        return x, self.lib.solvability.analyze(x, box=self.box, cap=self.cap)

    def summary(self, out) -> tuple:
        _, verdict = out
        rule = verdict.reasons[0].rule.value if verdict.reasons else None
        witness = self.lib.element.format_element(verdict.witness) if verdict.witness is not None else None
        return verdict.outcome.value, rule, witness

    def check(self, results: dict) -> dict:
        problems = {}
        for idx, out in results.items():
            item = self.items[idx]
            x, verdict = out
            outcome, rule, witness = self.summary(out)
            found = _verdict_problems(outcome, rule, witness is not None)
            if outcome != "unknown" and outcome != item.truth:
                found.append(f"verdict {outcome} contradicts the ground truth {item.truth}")
            if verdict.witness is not None and not independent.bracket_is_one(x, verdict.witness):
                found.append(f"witness {witness} fails the independent check")
            if item.truth == "solvable":
                phi_q = self.apply(item, self.lib.element.Q)
                if not independent.bracket_is_one(x, phi_q):
                    found.append("[phi(p), phi(q)] != 1: the map is not an automorphism")
            if found:
                problems[idx] = found
        return problems

    def decided(self, out) -> bool:
        return out[1].outcome.value != "unknown"


class OracleDeep:
    """find_witness_box(x, N, cap=N) on four fixed elements at N = 8 and 12.

    Box 16 is left out: its calls take 1.4-8 s, so a run holds too few of
    them for a steady figure on a shared machine."""

    name = "oracle_deep"
    default_seed = None
    held_out_seed = None
    elements = ("p^3*q^2+q^4+p^2", "(p+q^2)^2", "p+q^2", "h")
    boxes = (8, 12)
    # the naive dense oracle finishes in seconds up to box 8; at box 12 it
    # takes about 19 s for the four elements, too long for every run
    naive_max_box = 8
    cap = "box"  # each call's cap is its own box
    min_passes = 3

    def __init__(self, lib, seed: int, root: str):
        self.lib = lib
        parse = lib.parser.element_from_string
        self.items = [(text, parse(text).terms(), n) for n in self.boxes for text in self.elements]

    def element(self, item):
        return self.lib.element.WeylElement(item[1])

    def run(self, item):
        # a fresh element per call, so nothing kept on an element object
        # carries over between passes
        x, n = self.element(item), item[2]
        # boxes above the default cap of 8 need cap=n; it is passed here,
        # not through WEYL_BOX_CAP
        return self.lib.solvability.find_witness_box(x, n, cap=n)

    def summary(self, out) -> tuple:
        return out is not None, self.lib.element.format_element(out) if out is not None else None

    def check(self, results: dict) -> dict:
        from tests.oracles import naive_box_witness

        problems: dict[int, list[str]] = {}
        found_at = {}
        elements = [self.element(item) for item in self.items]
        verdicts = {item[0]: self.lib.solvability.analyze(x, box=4)
                    for item, x in zip(self.items, elements)}
        for idx, y in results.items():
            (text, _, n), x = self.items[idx], elements[idx]
            found_at[(text, n)] = y is not None
            if y is not None:
                if not independent.bracket_is_one(x, y):
                    problems.setdefault(idx, []).append("witness fails the independent check")
                if any(i > n or j > n for i, j in y.terms()):
                    problems.setdefault(idx, []).append("witness leaves the box")
        for idx, ((text, _, n), x) in enumerate(zip(self.items, elements)):
            if idx not in results:
                continue
            found = found_at[(text, n)]
            if n <= self.naive_max_box and found != (naive_box_witness(x, n) is not None):
                problems.setdefault(idx, []).append("found/not-found differs from the naive oracle")
            # the box-n columns are a subset of the box-m columns for m > n
            for m in self.boxes:
                if m > n and found and found_at.get((text, m)) is False:
                    problems.setdefault(idx, []).append(f"found at box {n} but not at box {m}")
            verdict = verdicts[text]
            if verdict.outcome.value == "unsolvable" and found:
                problems.setdefault(idx, []).append("witness found for an element proved unsolvable")
            if verdict.witness is not None and not found:
                reach = max(max(pt) for pt in verdict.witness.terms())
                if reach <= n:
                    problems.setdefault(idx, []).append(f"a witness within box {n} is known but was not found")
        return problems

    def decided(self, out) -> bool:
        return out is not None

    def extra(self, lat: list[float]) -> dict:
        """Time of the fixed element set at each box."""
        return {
            f"oracle_box{n}_s": sum(t for t, item in zip(lat, self.items) if item[2] == n)
            for n in self.boxes
        }


class CliProbe:
    """Spawns the `weyl` command line on survey inputs, for the traced run.

    The child is `cli_child.py`, which behaves like `python -m weylkit` and
    reports how long `import weylkit.cli` and `main()` took.  The `--` before
    the expression is required: without it argparse reads an expression such
    as "-3*p^2" as an option and the command exits 1.
    """

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        # the children run with the default box cap
        self.env.pop("WEYL_BOX_CAP", None)

    def _spawn(self, argv):
        proc = subprocess.run(
            argv, cwd=self.root, env=self.env, capture_output=True, text=True, timeout=120
        )
        return proc.returncode, proc.stdout, proc.stderr

    def analyze(self, text: str):
        """`weyl analyze --json -- TEXT`: (exit code, stdout, stderr, timings)."""
        child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_child.py")
        rc, out, err = self._spawn([sys.executable, child, "analyze", "--json", "--", text])
        lines = err.splitlines()
        timings = json.loads(lines[-1]) if lines else {}
        return rc, out, "\n".join(lines[:-1]), timings

    def interpreter(self) -> None:
        self._spawn([sys.executable, "-c", "pass"])


WORKLOADS = {cls.name: cls for cls in (Survey, Orbit, OracleDeep)}
