#!/usr/bin/env python3
"""Run the benchmark in alternating pairs, a parent revision against a
change, and write every figure to one JSON file.

Both sides are exported with `git archive` into fresh directories under a
temporary directory: the parent revision, and the change, which is the
working tree (tracked and untracked files that .gitignore does not
exclude, read through a temporary index so that the real one is left
alone).  Each pair runs `perfbench/run.py --trace 0` once per workload of
BENCHMARK.json on each side, the parent first in even pairs and the change
first in odd ones, with PYTHONDONTWRITEBYTECODE=1 and no __pycache__, so
that neither side reuses bytecode the other did not.

For each workload and end-to-end metric the file holds every value of each
side, their median and quartiles, and the number of pairs in which the
change read better (the direction is the metric's `better` in
BENCHMARK.json); with each side's verdict digests, `problems`, correctness
and the Python version.

Run with:  python scripts/bench_pairs.py --parent HEAD~1 --pairs 10 --seconds 10 --out BENCH.json
"""

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*args, env=None) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, check=True,
                          capture_output=True, text=True).stdout.strip()


def working_tree() -> str:
    """The tree object of the working tree, written through a temporary index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(tmp, "index"))
        git("read-tree", "HEAD", env=env)
        git("add", "-A", env=env)
        return git("write-tree", env=env)


def export(tree: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", "--format=tar", tree], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # the "data" filter, where this Python has it, refuses links and
        # paths that leave dest
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def parse_run(stdout: str) -> dict:
    """The record line and the result line that end a `--trace 0` run."""
    lines = stdout.splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def run_once(tree: Path, workload: str, seconds: float) -> dict:
    for cache in tree.rglob("__pycache__"):
        shutil.rmtree(cache)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} in {tree} exited {proc.returncode}: {proc.stderr.strip()}")
    return parse_run(proc.stdout)


def spread(values: list[float]) -> dict:
    q1, q3 = (statistics.quantiles(values, n=4, method="inclusive")[::2]
              if len(values) > 1 else (values[0], values[0]))
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: list[dict], better: dict[str, str]) -> dict:
    """Per workload: digests, problems and correctness of each side, and per
    end-to-end metric each side's values (in pair order), median and
    quartiles, and the pairs in which the change read better.  Each run is
    {"pair", "side", "workload", "record", "result"}; `better` maps a metric
    to "higher" or "lower" (a metric it lacks gets no pair count)."""
    out: dict[str, dict] = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        side_runs = {side: sorted((r for r in runs if r["workload"] == workload and r["side"] == side),
                                  key=lambda r: r["pair"]) for side in SIDES}
        summary = {
            "digests": {s: sorted({r["record"]["verdict_digest"] for r in rs}) for s, rs in side_runs.items()},
            "correct": {s: [r["result"]["correct"] for r in rs] for s, rs in side_runs.items()},
            "failed_share": {s: [r["record"]["failed_share"] for r in rs] for s, rs in side_runs.items()},
            "problems": {s: {k: v for r in rs for k, v in r["record"]["problems"].items()}
                         for s, rs in side_runs.items()},
            "metrics": {},
        }
        pairs = list(zip(side_runs["parent"], side_runs["change"]))
        for name, first in side_runs["parent"][0]["result"]["metrics"].items():
            values = {s: [r["result"]["metrics"][name]["value"] for r in rs] for s, rs in side_runs.items()}
            direction = better.get(name)
            sign = {"higher": 1, "lower": -1}.get(direction)
            summary["metrics"][name] = {
                "unit": first["unit"],
                "better": direction,
                **{s: spread(v) for s, v in values.items()},
                "pairs": len(pairs),
                "pairs_better": None if sign is None else sum(
                    sign * (c["result"]["metrics"][name]["value"] - p["result"]["metrics"][name]["value"]) > 0
                    for p, c in pairs),
            }
        out[workload] = summary
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", required=True, help="the revision to compare the working tree against")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=10.0, help="run time of each benchmark run")
    ap.add_argument("--out", required=True, help="the JSON file to write")
    args = ap.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        print("error: --pairs must be at least 1 and --seconds positive", file=sys.stderr)
        return 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    revs = {"parent": git("rev-parse", f"{args.parent}^{{commit}}"), "change": working_tree()}

    runs = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in SIDES}
        for side, tree in trees.items():
            export(revs[side], tree)
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for workload in workloads:
                for side in order:
                    run = run_once(trees[side], workload, args.seconds)
                    runs.append({"pair": pair, "side": side, "workload": workload, **run})
                    tp = run["result"]["metrics"]["throughput_ops_s"]["value"]
                    print(f"pair {pair} {workload} {side}: {tp:.0f} ops/s", file=sys.stderr)

    doc = {
        "parent": {"rev": args.parent, "commit": revs["parent"]},
        "change": {"rev": "working tree", "tree": revs["change"]},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "workloads": summarize(runs, better),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
