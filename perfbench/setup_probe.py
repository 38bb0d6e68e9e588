"""Time one workload set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Measures importing the library plus building the seeded inputs of the first
unit, the same span ``run.py`` times in its own process, and prints
{"setup_s": seconds}.
"""

import json
import sys
import time
from pathlib import Path

start = time.perf_counter()
here = Path(__file__).resolve().parent
sys.path[:0] = [str(here.parent / "src"), str(here)]
import bench_workloads  # noqa: E402
import run  # noqa: E402

run.fresh_unit(bench_workloads.build(sys.argv[1], int(sys.argv[2])))
print(json.dumps({"setup_s": time.perf_counter() - start}))
