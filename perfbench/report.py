#!/usr/bin/env python3
"""Run every workload once and print each end-to-end metric, by name and
with its unit, per workload; with --trace, the per-layer metrics as well.

    python3 perfbench/report.py [--seconds 30] [--seed 0] [--trace] [--workload NAME ...]

Exits non-zero when a run fails or any output is wrong.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("survey", "orbit", "oracle_deep")
RECORD_KEYS = ("failed_share", "oracle_box8_s", "oracle_box12_s")


def run(workload: str, args, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=os.path.dirname(HERE))
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true", help="also make the traced run")
    ap.add_argument("--workload", nargs="*", default=list(WORKLOADS), choices=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for workload in args.workload:
        record, result = run(workload, args, 0)
        ok &= result["correct"] and result["failed"] == 0
        print(f"== {workload}  correct={result['correct']}  attempted={result['attempted']}  "
              f"failed={result['failed']}")
        for name, m in result["metrics"].items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
        for name in RECORD_KEYS:
            if name in record:
                unit = "share" if name.endswith("share") else "s"
                print(f"  {name:<48} {record[name]:>14.6g} {unit}")
        print(f"  tail = p{record['tail_percentile']} of {record['samples']} inputs "
              f"({record['samples_beyond_tail']} beyond it), {record['passes']} passes, "
              f"corpus seed {record['corpus_seed']}, held-out {record['held_out_corpus_seed']}")
        if args.trace:
            record, result = run(workload, args, 1)
            ok &= result["correct"] and result["failed"] == 0
            print(f"  -- traced: {record['traced_passes']} passes")
            for name, m in result["metrics"].items():
                print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
