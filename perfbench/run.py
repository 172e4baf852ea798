#!/usr/bin/env python3
"""Benchmark for weylkit: times the library from outside, through the public
functions of its modules, and checks every output.

    python3 perfbench/run.py --workload survey --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from its
`src/` directory, and nothing needs to be installed.  With `--trace 0` the
last line of stdout is a JSON object with the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of a traced run.  The line before
it is the run record: versions, seeds, boxes, sample counts and the
verdict digest.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import sys
import time
import types
from collections import defaultdict

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
SETUP_REPS_PER_PASS = 4
LIB_MODULES = ("element", "grading", "parser", "polygon", "power_analysis", "solvability", "cli")


class BenchmarkError(Exception):
    """The benchmark itself misbehaved; no result is printed."""


def _library_modules() -> list[str]:
    return [n for n in sys.modules if n == "weylkit" or n.startswith("weylkit.")]


def load_library() -> types.SimpleNamespace:
    """Import weylkit afresh, so that every set-up repeat pays for it."""
    for name in _library_modules():
        del sys.modules[name]
    importlib.import_module("weylkit")
    return types.SimpleNamespace(
        **{name: importlib.import_module(f"weylkit.{name}") for name in LIB_MODULES}
    )


def set_up(cls, corpus_seed):
    """Import the library afresh and build the workload: its inputs and
    expected answers.  Returns the library, the workload and the seconds
    taken."""
    # the garbage of an earlier set-up is not this one's cost
    gc.collect()
    t0 = time.perf_counter()
    lib = load_library()
    wl = cls(lib, corpus_seed, ROOT)
    return lib, wl, time.perf_counter() - t0


def metered_set_up(cls, corpus_seed, meter: speed.SpeedMeter, times: list[float]):
    """set_up() between two runs of the reference loop; appends its time at
    reference speed to `times`."""
    before = meter.tick()
    lib, wl, seconds = set_up(cls, corpus_seed)
    meter.tick()
    times.append(meter.scaled(seconds, before))
    return lib, wl


def repeat_set_up(cls, corpus_seed, meter: speed.SpeedMeter, times: list[float]) -> None:
    """Set up SETUP_REPS_PER_PASS more times, timed as in metered_set_up().
    The run keeps using the library modules it started with.

    The set-up is repeated between the passes of the whole run, like the
    operations, so that `setup_s`, the median of these times, rests on many
    set-ups spread over the run."""
    saved = {name: sys.modules[name] for name in _library_modules()}
    try:
        for _ in range(SETUP_REPS_PER_PASS):
            metered_set_up(cls, corpus_seed, meter, times)
    finally:
        for name in _library_modules():
            del sys.modules[name]
        sys.modules.update(saved)


def tail_percentile(n: int) -> float:
    """The highest percentile, to 0.1, with at least 10 of n samples beyond
    it.  Below 20 samples no percentile of interest qualifies, and the tail
    is the maximum.  A workload has a fixed number of inputs, so its tail
    percentile is fixed too."""
    return 100.0 if n < 20 else math.floor(1000 * (1 - 10 / n)) / 10


def percentile(values: list[float], pct: float) -> float:
    if pct >= 100:
        return max(values)
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def fingerprint() -> str:
    """Hash of the library, the oracles and the benchmark sources."""
    h = hashlib.sha256()
    dirs = [os.path.join(ROOT, "src", "weylkit"), HERE]
    files = [os.path.join(d, f) for d in dirs for f in sorted(os.listdir(d)) if f.endswith(".py")]
    files.append(os.path.join(ROOT, "tests", "oracles.py"))
    for path in files:
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _timed(op, idx, item, first, errors):
    t0 = time.perf_counter()
    try:
        out, err = op(idx, item), None
    except Exception as exc:  # a failing operation is counted, not fatal
        out, err = None, f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    if err is not None:
        errors.setdefault(idx, []).append(err)
    elif idx not in first:
        first[idx] = out
    elif out != first[idx]:
        errors.setdefault(idx, []).append("output differs from the first pass")
    return t1 - t0


def run_pass(wl, rng, first: dict, errors: dict, op) -> list[tuple[int, float]]:
    """One closed-loop pass over wl.items in a fresh order drawn from rng;
    `op(idx, item)` runs one operation.  Returns (index, seconds) pairs."""
    order = rng.sample(range(len(wl.items)), len(wl.items))
    return [(idx, _timed(op, idx, wl.items[idx], first, errors)) for idx in order]


def timed_loop(wl, rng, seconds: float, first: dict, errors: dict, meter: speed.SpeedMeter, between):
    """Whole passes until `seconds` have passed and wl.min_passes are done,
    with `between()` called after each pass.  The reference loop runs at the
    start and end of each pass and at least every speed.EVERY_S within it.
    Returns, per input, the latency of each of its runs as measured and at
    reference speed, and the passes made.

    Successive passes run on successive CPUs of the process's own affinity
    set, so that an input's runs are spread over every CPU, and the
    reference loop runs on the same CPU as the operations it is set against.
    """
    cpus = sorted(os.sched_getaffinity(0))
    measured: dict[int, list[float]] = defaultdict(list)
    scaled: dict[int, list[float]] = defaultdict(list)
    op = lambda _idx, item: wl.run(item)  # noqa: E731
    passes = 0
    start = time.perf_counter()
    try:
        while passes < wl.min_passes or time.perf_counter() - start < seconds:
            os.sched_setaffinity(0, {cpus[passes % len(cpus)]})
            meter.tick()
            runs = []
            for idx in rng.sample(range(len(wl.items)), len(wl.items)):
                before = meter.last()
                runs.append((idx, _timed(op, idx, wl.items[idx], first, errors), before))
                meter.tick_if_due()
            meter.tick()
            for idx, dt, before in runs:
                measured[idx].append(dt)
                scaled[idx].append(meter.scaled(dt, before))
            passes += 1
            between()
    finally:
        os.sched_setaffinity(0, cpus)
    return measured, scaled, passes


def traced_passes(wl, rng, deadline: float, first: dict, errors: dict):
    """Untraced and traced passes in turn until `deadline` (at least one of
    each).  Returns the per-layer metrics of each traced pass and the time of
    each untraced pass, which prices the tracing."""
    from tracer import Tracer

    tracer = Tracer()
    passes, untraced_s = [], []
    label = f"{wl.name}.op"
    while not passes or time.perf_counter() < deadline:
        untraced = run_pass(wl, rng, first, errors, lambda _i, item: wl.run(item))
        untraced_s.append(sum(dt for _, dt in untraced))
        tracer.reset()
        tracer.install()
        try:
            run_pass(wl, rng, first, errors,
                     lambda idx, item: tracer.run_op(idx, label, wl.run, item))
        finally:
            tracer.uninstall()
        passes.append(tracer.snapshot())
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}.json"))
    return passes, untraced_s


def cli_layers(wl, first: dict, errors: dict) -> dict:
    """Run the first inputs of a workload through the `weyl` command line:
    interpreter start, `import weylkit.cli` and `main()`, and the whole spawn.
    Each spawn must print exactly the report made in-process."""
    from workloads import CliProbe

    probe = CliProbe(ROOT)
    spawn_ms, interpreter_ms, import_ms, main_ms = [], [], [], []
    for idx in range(wl.cli_inputs):
        t0 = time.perf_counter()
        rc, out, err, timings = probe.analyze(wl.items[idx])
        spawn_ms.append(1e3 * (time.perf_counter() - t0))
        if rc != 0 or err or out != first.get(idx, "") + "\n":
            errors.setdefault(idx, []).append(f"weyl analyze exited {rc} or printed another report")
        import_ms.append(timings.get("import_ms", 0.0))
        main_ms.append(timings.get("main_ms", 0.0))
        t0 = time.perf_counter()
        probe.interpreter()
        interpreter_ms.append(1e3 * (time.perf_counter() - t0))
    med = statistics.median
    return {"cli.op_ms": med(spawn_ms), "cli.interpreter_ms": med(interpreter_ms),
            "cli.import_ms": med(import_ms), "cli.main_ms": med(main_ms)}


def check_state(key: str, fields: dict) -> None:
    """Exact counters and the verdict digest must repeat across runs of the
    same code and seed; the first run of a key records them."""
    path = os.path.join(OUT_DIR, "state.json")
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        with open(path) as fh:
            state = json.load(fh)
    except (OSError, ValueError):
        state = {}
    seen = state.setdefault(key, {})
    for name, value in fields.items():
        if name in seen and seen[name] != value:
            raise BenchmarkError(f"{key}: {name} changed between runs of the same code and seed")
        seen[name] = value
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(state, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "weylkit", "__init__.py")):
        print(f"error: no weylkit sources under {ROOT}/src; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.append(ROOT)
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0, help="seed of the order of operations in each pass")
    ap.add_argument("--corpus-seed", type=int, default=None,
                    help="seed of the survey and orbit corpora (default: the workload's own)")
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    cls = WORKLOADS[args.workload]
    corpus_seed = cls.default_seed if args.corpus_seed is None else args.corpus_seed

    meter = speed.SpeedMeter()
    setup_times: list[float] = []
    _, wl = metered_set_up(cls, corpus_seed, meter, setup_times)

    rng = random.Random(args.seed)
    first: dict = {}
    errors: dict = {}
    if args.trace:
        deadline = time.perf_counter() + args.seconds
        passes, untraced_s = traced_passes(wl, rng, deadline, first, errors)
        cli = cli_layers(wl, first, errors) if getattr(wl, "cli_inputs", 0) else {}
        executions = {idx: 2 * len(passes) for idx in range(len(wl.items))}
    else:
        measured, scaled, n_passes = timed_loop(
            wl, rng, args.seconds, first, errors, meter,
            lambda: repeat_set_up(cls, corpus_seed, meter, setup_times))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        executions = {idx: len(v) for idx, v in measured.items()}

    import independent
    from tests.oracles import rewrite_normal_qp

    independent.validate_against(rewrite_normal_qp)
    problems = wl.check({idx: out for idx, out in first.items() if idx not in errors})
    for idx, errs in errors.items():
        problems.setdefault(idx, []).extend(errs)
    summaries = [f"{idx}\t{wl.summary(first[idx])}" for idx in sorted(first)]
    digest = hashlib.sha256("\n".join(summaries).encode()).hexdigest()[:16]
    decided_share = sum(wl.decided(first[idx]) for idx in first) / len(wl.items)
    source_hash = fingerprint()
    key = f"{wl.name}|corpus_seed={corpus_seed}|{source_hash}"
    attempted = sum(executions.values())
    failed = sum(executions[idx] for idx in problems)

    record = {
        "workload": wl.name,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "fingerprint": source_hash,
        "seed": args.seed,
        "corpus_seed": corpus_seed,
        "held_out_corpus_seed": cls.held_out_seed,
        "box": getattr(wl, "box", None),
        "boxes": list(getattr(wl, "boxes", ())),
        "cap": wl.cap,
        "items_per_pass": len(wl.items),
        "setup_reps": len(setup_times),
        "verdict_digest": digest,
        "failed_share": failed / attempted,
        "problems": {str(k): v for k, v in sorted(problems.items())[:20]},
    }

    if args.trace:
        from tracer import EXACT_KEYS, per_layer_names

        exact = {k: passes[0][k] for k in EXACT_KEYS}
        if any(p[k] != exact[k] for p in passes for k in EXACT_KEYS):
            raise BenchmarkError("exact counters differ between passes of one run")
        check_state(key, {"verdict_digest": digest, "exact": exact})
        layer = {name: statistics.median(p.get(name, 0.0) for p in passes)
                 for name in per_layer_names()}
        layer.update(cli)
        layer["trace.overhead_share"] = 1 - statistics.median(untraced_s) / layer["trace.op_s"]
        record.update(traced_passes=len(passes), untraced_pass_s=untraced_s)
        metrics = {name: {"value": value, "unit": _unit(name)} for name, value in layer.items()}
    else:
        check_state(key, {"verdict_digest": digest})
        # each input's latency is the median of its runs at reference speed;
        # the runs of one input are spread over the whole run
        items = range(len(wl.items))
        lat = [statistics.median(scaled[idx]) for idx in items]
        as_measured = [statistics.median(measured[idx]) for idx in items]
        tail_pct = tail_percentile(len(lat))
        tail = percentile(lat, tail_pct)
        record.update(
            tail_percentile=tail_pct,
            samples=len(lat),
            samples_beyond_tail=sum(1 for v in lat if v > tail),
            passes=n_passes,
            executions=attempted,
            reference_s=speed.REFERENCE_S,
            reference_runs=len(meter.times),
            reference_median_s=statistics.median(meter.times),
            measured_latency_ms_p50=1e3 * statistics.median(as_measured),
            measured_latency_ms_tail=1e3 * percentile(as_measured, tail_pct),
            measured_throughput_ops_s=len(as_measured) / sum(as_measured),
            **(wl.extra(lat) if hasattr(wl, "extra") else {}),
        )
        metrics = {
            "latency_ms_p50": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "latency_ms_tail": {"value": 1e3 * tail, "unit": "ms"},
            "throughput_ops_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "decided_share": {"value": decided_share, "unit": "share"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }

    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("_share"):
        return "share"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(3)
