"""Golden corpus: the `weyl` CLI output for a fixed set of inputs, pinned
byte for byte.

`golden/cli.json` records, for every input and every subcommand form in
COMMANDS, the exit code and the sha256 of stdout.  The inputs are the
showcase strings of `scripts/analyze_examples.py` followed by the first 200
elements of the `scripts/verdict_survey.py` generator with seed 7 (exponents
at most 4, at most 5 terms, |coefficient| at most 9).

Regenerate the file only for an intended change of output, and record that
change in CHANGES.md.  The script prints the id and the changed command
forms of every case whose digests differ from the file it replaces:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

import pytest

from weylkit.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

COMMANDS = (
    "analyze --json",
    "analyze",
    "polygon --json",
    "polygon",
    "grade --json",
    "grade",
    "oracle --box 4",
    "oracle --json --box 4",
)

SURVEY_SEED = 7
SURVEY_COUNT = 200


def run_command(command: str, text: str) -> dict:
    """Exit code and stdout digest of `weyl <command> -- <text>`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*command.split(), "--", text])
    return {"exit": code, "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def _load() -> list[dict]:
    with open(GOLDEN) as fh:
        return json.load(fh)["cases"]


# run as a script, this file writes the corpus instead of reading it
CASES = _load() if __name__ != "__main__" else []


@pytest.mark.parametrize("case", CASES, ids=[case["id"] for case in CASES])
def test_cli_output_unchanged(case, monkeypatch):
    monkeypatch.delenv("WEYL_BOX_CAP", raising=False)
    for command in COMMANDS:
        got = run_command(command, case["input"])
        assert got == case["outputs"][command], (
            f"`weyl {command}` output changed for input {case['input']!r}"
        )


def corpus_inputs() -> list[tuple[str, str]]:
    scripts = Path(__file__).resolve().parent.parent / "scripts"
    sys.path.insert(0, str(scripts))
    from analyze_examples import EXAMPLES
    from verdict_survey import random_element

    from weylkit import format_element

    out = [(f"showcase-{k}", text) for k, (_, text) in enumerate(EXAMPLES)]
    rng = random.Random(SURVEY_SEED)
    for k in range(SURVEY_COUNT):
        x = random_element(rng, max_exp=4, max_terms=5, coeff_bound=9)
        out.append((f"survey-{k:03d}", format_element(x)))
    return out


def regenerate() -> None:
    """Rewrite the corpus and print, for every case whose digests differ
    from the file it replaces, its id and the changed command forms."""
    old = {case["id"]: case for case in _load()} if GOLDEN.exists() else {}
    cases = [
        {"id": case_id, "input": text,
         "outputs": {command: run_command(command, text) for command in COMMANDS}}
        for case_id, text in corpus_inputs()
    ]
    for case in cases:
        before = old.get(case["id"], {"outputs": {}})["outputs"]
        changed = [command for command in COMMANDS if before.get(command) != case["outputs"][command]]
        if changed:
            print(f"{case['id']}: {', '.join(changed)}")
    GOLDEN.parent.mkdir(exist_ok=True)
    with open(GOLDEN, "w") as fh:
        # one case per line keeps a regenerated corpus readable as a diff
        fh.write('{"cases": [\n' + ",\n".join(json.dumps(c) for c in cases) + "\n]}\n")


if __name__ == "__main__":
    regenerate()
