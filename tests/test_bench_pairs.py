"""The summary of scripts/bench_pairs.py, on canned benchmark output: no
benchmark runs and nothing is timed."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

BETTER = {"throughput_ops_s": "higher", "latency_ms_p50": "lower"}


def canned(throughput, p50, digest="a963cb171eb1e4bc", problems=None):
    """The stdout of one `perfbench/run.py --trace 0` run: a progress line,
    the record line, the result line."""
    record = {"workload": "survey", "python": "3.11.7", "verdict_digest": digest,
              "failed_share": 0.5 if problems else 0.0, "problems": problems or {}}
    result = {"correct": not problems, "attempted": 10, "failed": 5 if problems else 0, "metrics": {
        "throughput_ops_s": {"value": throughput, "unit": "1/s"},
        "latency_ms_p50": {"value": p50, "unit": "ms"},
        "setup_s": {"value": 0.0, "unit": "s"},
    }}
    return "\n".join(["warming up", json.dumps({"record": record}), json.dumps(result)]) + "\n"


def runs(parent, change):
    out = []
    for pair, (p, c) in enumerate(zip(parent, change)):
        for side, stdout in (("parent", canned(*p)), ("change", canned(*c))):
            out.append({"pair": pair, "side": side, "workload": "survey", **bench_pairs.parse_run(stdout)})
    return out


def test_parse_run_reads_the_last_two_lines():
    run = bench_pairs.parse_run(canned(3344.0, 0.3))
    assert run["record"]["verdict_digest"] == "a963cb171eb1e4bc"
    assert run["result"]["metrics"]["throughput_ops_s"] == {"value": 3344.0, "unit": "1/s"}


def test_summary_of_four_pairs():
    parent = [(3344.0, 0.301), (3346.0, 0.300), (3350.0, 0.302), (3300.0, 0.299)]
    change = [(3884.0, 0.256), (3866.0, 0.257), (3340.0, 0.250), (3900.0, 0.310)]
    got = bench_pairs.summarize(runs(parent, change), BETTER)
    survey = got["survey"]
    assert survey["digests"] == {"parent": ["a963cb171eb1e4bc"], "change": ["a963cb171eb1e4bc"]}
    assert survey["correct"] == {"parent": [True] * 4, "change": [True] * 4}
    assert survey["problems"] == {"parent": {}, "change": {}}
    tp = survey["metrics"]["throughput_ops_s"]
    assert tp["unit"] == "1/s" and tp["better"] == "higher" and tp["pairs"] == 4
    assert tp["parent"]["values"] == [3344.0, 3346.0, 3350.0, 3300.0]
    assert tp["parent"]["median"] == 3345.0
    # inclusive quartiles: a quarter and three quarters of the way along the sorted values
    assert tp["parent"]["q1"] == pytest.approx(3333.0) and tp["parent"]["q3"] == pytest.approx(3347.0)
    assert tp["change"]["median"] == 3875.0
    assert tp["pairs_better"] == 3  # pair 2 read worse
    p50 = survey["metrics"]["latency_ms_p50"]
    assert p50["better"] == "lower" and p50["pairs_better"] == 3  # pair 3 read worse
    # a metric BENCHMARK.json does not list gets its values, but no pair count
    setup = survey["metrics"]["setup_s"]
    assert setup["better"] is None and setup["pairs_better"] is None
    assert setup["change"]["values"] == [0.0] * 4


def test_one_pair_and_a_failing_run():
    bad = {"pair": 0, "side": "change", "workload": "survey", **bench_pairs.parse_run(
        canned(10.0, 1.0, digest="0000000000000000", problems={"3": ["wrong verdict"]}))}
    good = {"pair": 0, "side": "parent", "workload": "survey", **bench_pairs.parse_run(canned(20.0, 0.5))}
    survey = bench_pairs.summarize([good, bad], BETTER)["survey"]
    assert survey["digests"] == {"parent": ["a963cb171eb1e4bc"], "change": ["0000000000000000"]}
    assert survey["correct"] == {"parent": [True], "change": [False]}
    assert survey["failed_share"] == {"parent": [0.0], "change": [0.5]}
    assert survey["problems"]["change"] == {"3": ["wrong verdict"]}
    tp = survey["metrics"]["throughput_ops_s"]
    assert tp["change"] == {"values": [10.0], "median": 10.0, "q1": 10.0, "q3": 10.0}
    assert tp["pairs_better"] == 0
