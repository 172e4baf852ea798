#!/usr/bin/env python3
"""Time a cold start of the `weyl` command line.

It prints the median wall time of N spawns each of
`python -m weylkit analyze h` and `python -c pass`, run alternately, their
difference (weylkit's share of a start), and the median cumulative
`-X importtime` figure of `import weylkit.cli` over N more spawns.  Every
spawn runs this interpreter with the repository's src/ first on
PYTHONPATH; whether bytecode is written and reused follows the environment
(PYTHONDONTWRITEBYTECODE and the state of __pycache__).

Run with:  python scripts/cold_start.py --spawns 15
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def spawn_ms(argv, env) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *argv], env=env, check=True, capture_output=True)
    return 1000 * (time.perf_counter() - t0)


def import_ms(env) -> float:
    """The cumulative microseconds of the weylkit.cli line, in ms."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import weylkit.cli"],
                          env=env, check=True, capture_output=True, text=True)
    for line in proc.stderr.splitlines():  # "import time: self | cumulative | name"
        fields = line.split("|")
        if fields[-1].strip() == "weylkit.cli":
            return int(fields[1]) / 1000
    raise RuntimeError("-X importtime printed no weylkit.cli line")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--spawns", type=int, default=15)
    args = ap.parse_args()
    if args.spawns < 1:
        print(f"error: --spawns must be at least 1, got {args.spawns}", file=sys.stderr)
        return 1

    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))
    weyl, bare = [], []
    for _ in range(args.spawns):
        weyl.append(spawn_ms(["-m", "weylkit", "analyze", "h"], env))
        bare.append(spawn_ms(["-c", "pass"], env))
    imports = [import_ms(env) for _ in range(args.spawns)]
    med = statistics.median
    print(f"spawns: {args.spawns} each, {sys.implementation.name} {sys.version.split()[0]}")
    print(f"python -m weylkit analyze h  {med(weyl):8.1f} ms (median)")
    print(f"python -c pass               {med(bare):8.1f} ms (median)")
    print(f"weylkit's share              {med(weyl) - med(bare):8.1f} ms")
    print(f"import weylkit.cli           {med(imports):8.1f} ms (median cumulative -X importtime)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
