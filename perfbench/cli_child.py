"""`weyl` with its import and main() timed, for the traced cli workload.

Run as `python cli_child.py ARGS...`; behaves like `python -m weylkit ARGS...`
and adds one JSON line with the two timings to the end of stderr.
"""

import json
import sys
import time

t0 = time.perf_counter()
import weylkit.cli  # noqa: E402  (the import is what is being timed)

t1 = time.perf_counter()
rc = weylkit.cli.main(sys.argv[1:])
t2 = time.perf_counter()
sys.stdout.flush()
print(json.dumps({"import_ms": 1e3 * (t1 - t0), "main_ms": 1e3 * (t2 - t1)}), file=sys.stderr)
sys.exit(rc)
