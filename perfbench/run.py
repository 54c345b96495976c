"""symrees benchmark: time verification workloads end to end and per layer.

Usage (from the root of a symrees checkout):

    python3 perfbench/run.py --workload length-char0 --seed 0 --seconds 40 --trace 0

Workloads (see ``workloads.py``): ``length-char0``, ``length-prime`` and
``ideal-build``.  One process, one thread, jobs one after another.

``--trace 0`` measures passes over the workload's jobs until ``--seconds``
would be exceeded and reports ``wall_s`` and ``cpu_s`` (medians over passes),
``peak_rss_mb`` and ``setup_s`` (median of several set-ups, each in a fresh
interpreter).  ``--trace 1`` alternates plain and traced passes and reports
the per-layer metrics of ``tracing.py``, among them ``trace.overhead_s``
(median traced wall time minus median plain wall time).  Every pass checks
each job's answer against ``answers.json`` outside the timed region; a job
that raises or answers wrongly counts as failed.

Human-readable lines (metadata, every metric with unit and sample count,
``failed_ratio``) come first; the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans and the full
result are written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5

UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def layer_unit(name):
    if name.endswith(".ns"):
        return "ns"
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    if name.endswith(".max") and "bits" in name:
        return "bits"
    if "degree" in name or name.endswith("stable_at"):
        return "degree"
    return "count"


def git_rev():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure_setup(workload, seed):
    """Median of SETUP_PROBES fresh-interpreter set-ups, after one that fills __pycache__."""
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), str(OUT / "inputs")],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times[1:]), SETUP_PROBES


class Pass:
    """One pass over the jobs: timings and the number of failed jobs."""

    def __init__(self, jobs, answers, tracer=None):
        inputs = []
        for idx, job in enumerate(jobs):
            if tracer is None:
                inputs.append(job.build())
                continue
            tracer.job = idx
            inp = tracer.span("configs.build", job.build)
            if hasattr(inp, "field"):
                tracer.instrument_field(inp.field)
            inputs.append(inp)
        gc.collect()
        results = []
        t0, c0 = time.perf_counter(), time.process_time()
        for idx, (job, inp) in enumerate(zip(jobs, inputs)):
            if tracer is not None:
                tracer.job = idx
            try:
                results.append(job.run(inp))
            except Exception:  # a failing job is counted, the run goes on
                traceback.print_exc()
                results.append(None)
        self.wall = time.perf_counter() - t0
        self.cpu = time.process_time() - c0
        self.failed = 0
        for job, result in zip(jobs, results):
            if result is None or not self._correct(job, result, answers):
                self.failed += 1

    @staticmethod
    def _correct(job, result, answers):
        got = json.loads(json.dumps(job.answer(result)))
        want = answers.get(job.name)
        if got != want:
            print(f"wrong answer for {job.name}: got {json.dumps(got)}, "
                  f"pinned {json.dumps(want)}", file=sys.stderr)
            return False
        return True


def run_passes(make_pass, seconds, minimum):
    """At least ``minimum`` passes, then more while a typical one still ends within ``seconds``."""
    start = time.perf_counter()
    passes, durations = [], []
    while len(passes) < minimum or (
            time.perf_counter() - start + statistics.median(durations) <= seconds):
        t0 = time.perf_counter()
        passes.append(make_pass(len(passes)))
        durations.append(time.perf_counter() - t0)
    return passes


def main(argv=None):
    ap = argparse.ArgumentParser(description="symrees benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "symrees" / "__init__.py").is_file() or not (
            ROOT / "scripts" / "run_verifications.py").is_file():
        print(f"error: {ROOT} is not a symrees checkout (src/symrees and "
              "scripts/run_verifications.py are needed)", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "scripts"), str(HERE)]
    from workloads import WORKLOADS, build_workload
    from tracing import Tracer

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    answers = json.loads((HERE / "answers.json").read_text())
    OUT.mkdir(exist_ok=True)

    def jobs():
        return build_workload(args.workload, args.seed, OUT / "inputs")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "mode": "traced" if args.trace else "plain",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
    }
    samples = {}
    tracers = []
    if args.trace == 0:
        setup_s, samples["setup_s"] = measure_setup(args.workload, args.seed)
        passes = run_passes(lambda i: Pass(jobs(), answers), args.seconds, 1)
        metrics = {
            "wall_s": statistics.median(p.wall for p in passes),
            "cpu_s": statistics.median(p.cpu for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": setup_s,
        }
        samples.update(wall_s=len(passes), cpu_s=len(passes), peak_rss_mb=1)
        meta["passes"] = len(passes)
        units = UNITS
    else:
        def alternate(i):
            if i % 2 == 0:
                return Pass(jobs(), answers)
            tracer = Tracer()
            tracers.append(tracer)
            tracer.install()
            try:
                return Pass(jobs(), answers, tracer)
            finally:
                tracer.restore()

        passes = run_passes(alternate, args.seconds, 2)
        plain, traced = passes[0::2], passes[1::2]
        per_pass = [t.layer_metrics() for t in tracers]
        metrics = dict(per_pass[0])
        for name in metrics:
            if layer_unit(name) in ("s", "ns"):
                metrics[name] = statistics.median(m[name] for m in per_pass)
            elif any(m[name] != metrics[name] for m in per_pass[1:]):
                print(f"warning: count {name} differs between traced passes", file=sys.stderr)
        metrics["fields.mul.ns"] = tracers[0].mul_replay_ns()
        metrics["trace.overhead_s"] = (statistics.median(p.wall for p in traced)
                                       - statistics.median(p.wall for p in plain))
        samples = {name: len(per_pass) for name in metrics}
        meta["passes"] = {"plain": len(plain), "traced": len(traced)}
        units = {name: layer_unit(name) for name in metrics}

    attempted = len(WORKLOADS[args.workload]) * len(passes)
    failed = sum(p.failed for p in passes)
    print("# meta " + json.dumps(meta, sort_keys=True))
    for name, value in metrics.items():
        shown = f"{value:16d}" if isinstance(value, int) else f"{value:16.6f}"
        print(f"# {name:34s} {shown} {units[name]:6s} n={samples[name]}")
    print(f"# {'failed_ratio':34s} {failed / attempted:16.6f} {'ratio':6s} n={attempted}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    stem = f"{args.workload}-seed{args.seed}-{meta['mode']}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(
        {"meta": meta, "samples": samples, "failed_ratio": failed / attempted,
         "pass_wall_s": [p.wall for p in passes], "pass_cpu_s": [p.cpu for p in passes], **result},
        indent=2, sort_keys=True) + "\n")
    if tracers:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(tracers[0].spans) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
