#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<label>.json``.

Usage (from the root of a symrees checkout):

    python3 scripts/bench.py <label>

For each workload in ``BENCHMARK.json`` it runs ``perfbench/run.py`` twice,
with ``--trace 0`` (end-to-end metrics) and ``--trace 1`` (per-layer
metrics), for the ``run_seconds`` given there and at the fixed seed SEED,
and stores the last JSON line each run prints.  It then times ``verify`` on
fermat-5 over Q(zeta_5) and grid-2x3, which the benchmark's workloads leave
out, taken by name from ``run_verifications.build_jobs``: K runs each, in
this process, with the configuration built outside the timed region; it
records the min and median seconds and each run's ``timings_ms``.  The file goes to the root of the
checkout, with the Python version, ``nproc``, the git revision and K.
Every timing is taken with ``time.perf_counter``.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEED = 1
K = 5
VERIFY_JOBS = ("fermat-5", "grid-2x3")


def git_rev():
    """HEAD, with "+dirty" when tracked files differ from it."""
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        return "unknown"
    dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                           capture_output=True, text=True).stdout.strip()
    return proc.stdout.strip() + ("+dirty" if dirty else "")


def perfbench(workload, seed, seconds, trace):
    """The result line of one ``perfbench/run.py`` run."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_verify(make, k):
    from symrees.verifier import verify

    seconds, timings = [], []
    for _ in range(k):
        cfg = make()
        t0 = time.perf_counter()
        report = verify(cfg, seed=0)
        seconds.append(time.perf_counter() - t0)
        timings.append(report.timings_ms)
    return {"min_s": min(seconds), "median_s": statistics.median(seconds),
            "runs_s": seconds, "timings_ms": timings}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("label", help="names the output file BENCH_<label>.json")
    args = ap.parse_args()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts")]
    from run_verifications import build_jobs

    out = {
        "meta": {"python": platform.python_version(), "nproc": os.cpu_count(),
                 "git_rev": git_rev(), "k": K, "seed": SEED, "seconds": seconds},
        "perfbench": {},
        "verify": {},
    }
    for workload in (w["name"] for w in benchmark["workloads"]):
        for trace in (0, 1):
            mode = "traced" if trace else "plain"
            print(f"perfbench {workload} {mode} ...", flush=True)
            out["perfbench"][f"{workload}/{mode}"] = perfbench(workload, SEED, seconds, trace)
    jobs = dict(build_jobs(False))
    for name in VERIFY_JOBS:
        print(f"verify {name} x{K} ...", flush=True)
        out["verify"][name] = time_verify(jobs[name], K)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
