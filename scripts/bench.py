#!/usr/bin/env python3
"""Record one point of the benchmark trajectory as ``BENCH_<label>.json``.

Usage (from the root of a symrees checkout):

    python3 scripts/bench.py <label>

For each workload in ``BENCHMARK.json`` it runs ``perfbench/run.py`` with
``--trace 0`` (end-to-end metrics) and ``--trace 1`` (per-layer metrics),
for the ``run_seconds`` given there and at the fixed seed SEED, PERFBENCH_RUNS
times each, in rounds that visit every workload and mode once, so that a
slow spell of the machine falls on all of them alike.  For each workload and
mode it stores the median of every metric over those runs, with the runs'
values beside it, so that one noisy run does not read as a change.  It then
times ``verify`` on
fermat-5 over Q(zeta_5) and grid-2x3, which the benchmark's workloads leave
out, taken by name from ``run_verifications.build_jobs``: K runs each, in
this process, with the configuration built outside the timed region; it
records the min and median seconds and each run's ``timings_ms``.  The
``kernel`` block times single calls into the Groebner engine, K each, in this
process, with their inputs built outside the timed region: one DS truncated
run (``lead_monomial_basis`` on fermat-5 over F_31 with the seed-0 linear
form at N' = KERNEL_TRUNCATION, the largest run of that verify), one
``points_ideal`` of the same configuration (many small bases, where set-up
cost per call shows), one ``symbolic_power_ideal`` of fermat-3 over
Q(zeta_3) at r = 3 (eliminations with cyclotomic coefficients) and one
``_eliminate_along`` of the fermat-4 witnesses over Q(zeta_4) with the seed-0
linear form (the substitution that starts every length route), and one
INFINITE gate (``_meets_positive_dimension`` on a fresh ideal of the seed-0
eliminated witnesses of fermat-5 over F_31, the test the first seed pays
after its first run without a certificate).  The file
goes to the root of the checkout, with the Python version, ``nproc``, the
git revision and K.  Every timing is taken with ``time.perf_counter``.
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
PERFBENCH_RUNS = 3
VERIFY_JOBS = ("fermat-5", "grid-2x3")
KERNEL_TRUNCATION = 58


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


def median_result(results):
    """Result lines of several runs as one: every metric's median with its
    per-run values, the summed attempts and failures, correct if all were."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"unit": first["unit"], "value": statistics.median(values),
                         "runs": values}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "runs": len(results), "metrics": metrics}


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


def kernel_calls(jobs):
    """The kernel block's calls, keyed by name, with their inputs built."""
    from symrees.configs import fermat
    from symrees.groebner import lead_monomial_basis
    from symrees.points import points_ideal, symbolic_power_ideal
    from symrees.polynomials import DS
    from symrees.ideals import Ideal
    from symrees.verifier import (
        _eliminate_along,
        _meets_positive_dimension,
        _truncation_inputs,
        pick_generic_linear_form,
    )

    cfg = jobs["fermat-5-f31"]()
    u = pick_generic_linear_form(cfg.points, seed=0)
    w = cfg.witnesses
    xi1, xi2 = _eliminate_along(u, [w.xi1, w.xi2])
    gens = _truncation_inputs([xi1, xi2], xi1.ring, KERNEL_TRUNCATION)
    f3 = fermat(3)
    f4 = jobs["fermat-4"]()
    u4 = pick_generic_linear_form(f4.points, seed=0)
    w4 = f4.witnesses
    return {
        "ds_truncated_fermat-5-f31": lambda: lead_monomial_basis(
            gens, order=DS, truncate_degree=KERNEL_TRUNCATION),
        "points_ideal_fermat-5-f31": lambda: points_ideal(cfg.points, cfg.ring),
        "symbolic_power_fermat-3-r3": lambda: symbolic_power_ideal(f3.points, 3, f3.ring),
        "eliminate_along_fermat-4": lambda: _eliminate_along(u4, [w4.xi1, w4.xi2]),
        # a fresh Ideal per call: a cached basis would make later calls free
        "infinite_gate_fermat-5-f31": lambda: _meets_positive_dimension(
            Ideal([xi1, xi2], ring=xi1.ring)),
    }


def time_call(call, k):
    seconds = []
    for _ in range(k):
        t0 = time.perf_counter()
        call()
        seconds.append(time.perf_counter() - t0)
    return {"min_s": min(seconds), "median_s": statistics.median(seconds), "runs_s": seconds}


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
                 "git_rev": git_rev(), "k": K, "perfbench_runs": PERFBENCH_RUNS,
                 "seed": SEED, "seconds": seconds},
        "perfbench": {},
        "verify": {},
        "kernel": {},
    }
    runs = {}
    for round_ in range(1, PERFBENCH_RUNS + 1):
        for workload in (w["name"] for w in benchmark["workloads"]):
            for trace in (0, 1):
                key = f"{workload}/{'traced' if trace else 'plain'}"
                print(f"perfbench {key} {round_}/{PERFBENCH_RUNS} ...", flush=True)
                runs.setdefault(key, []).append(perfbench(workload, SEED, seconds, trace))
    out["perfbench"] = {key: median_result(results) for key, results in runs.items()}
    jobs = dict(build_jobs(False))
    for name in VERIFY_JOBS:
        print(f"verify {name} x{K} ...", flush=True)
        out["verify"][name] = time_verify(jobs[name], K)
    for name, call in kernel_calls(jobs).items():
        print(f"kernel {name} x{K} ...", flush=True)
        out["kernel"][name] = time_call(call, K)
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
