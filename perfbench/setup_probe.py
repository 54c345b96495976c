"""Time one set-up in a fresh interpreter: import symrees and build a workload's inputs.

Usage: python3 perfbench/setup_probe.py <workload> <seed> <inputs-dir>
Prints the elapsed seconds; ``run.py`` calls it several times for ``setup_s``.
"""

import sys
import time
from pathlib import Path

t0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(ROOT / "perfbench")]

import symrees  # noqa: E402,F401
from workloads import build_workload  # noqa: E402

for job in build_workload(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])):
    job.build()
print(time.perf_counter() - t0)
