#!/usr/bin/env python3
"""Compare this checkout with a parent checkout in alternating benchmark pairs.

Usage (from anywhere):

    python3 scripts/ab.py <parent-checkout>

For each of PAIRS pairs i and each workload in this checkout's
``BENCHMARK.json``, it runs

    <tree>/perfbench/run.py --workload W --seed SEED+i --seconds SECONDS --trace 0

once in the parent tree and once in this one, each from its own root.  The
side that runs first alternates from pair to pair, so that a slow spell of
the machine falls on both sides alike.  For every workload and end-to-end
metric it prints the parent's median, this checkout's median, the pairs this
checkout won (strictly better in the direction ``BENCHMARK.json`` gives) and
the interquartile range of the parent's runs.  A run that fails or answers
wrongly stops the comparison.

Then, for each workload, it runs SETUP_PROBES fresh-interpreter
``perfbench/setup_probe.py`` probes per tree, alternating between the trees
probe by probe, and prints each side's median and interquartile range.
``setup_s`` in a ``run.py`` result is the median of only 5 probes, which can
land far apart on identical code; the longer alternating series tells a real
change in start-up cost from that noise.
"""

import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
PAIRS = 10
SEED = 200
SECONDS = 10
SETUP_PROBES = 20


def perfbench(tree, workload, seed):
    """The metric values of one plain ``perfbench/run.py`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{tree}: {workload} at seed {seed} failed or answered wrongly")
    return {name: m["value"] for name, m in result["metrics"].items()}


def setup_probe(tree, workload, seed):
    """Seconds of one fresh-interpreter set-up in ``tree``, as ``run.py`` times it."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "setup_probe.py"), workload, str(seed),
         str(tree / "perfbench" / "out" / "inputs")],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def iqr(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def main():
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    parent = pathlib.Path(sys.argv[1]).resolve()
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in benchmark["workloads"]]
    metrics = benchmark["end_to_end"]
    runs = {(side, w): [] for side in ("parent", "change") for w in workloads}
    for i in range(PAIRS):
        order = [("parent", parent), ("change", ROOT)]
        if i % 2:
            order.reverse()
        for w in workloads:
            for side, tree in order:
                print(f"pair {i + 1}/{PAIRS} {w} {side} ...", file=sys.stderr, flush=True)
                runs[side, w].append(perfbench(tree, w, SEED + i))
    print(f"{'workload':14} {'metric':12} {'parent':>10} {'change':>10} {'won':>6} {'parent IQR':>11}")
    for w in workloads:
        for m in metrics:
            name = m["name"]
            before = [r[name] for r in runs["parent", w]]
            after = [r[name] for r in runs["change", w]]
            sign = 1 if m["better"] == "lower" else -1
            won = sum(sign * (b - a) > 0 for a, b in zip(after, before))
            print(f"{w:14} {name:12} {statistics.median(before):10.4g} "
                  f"{statistics.median(after):10.4g} {won:>3}/{PAIRS} {iqr(before):11.4g}")
    print(f"\n{'workload':14} {'setup probes':12} {'parent':>10} {'change':>10} "
          f"{'parent IQR':>11} {'change IQR':>11}")
    for w in workloads:
        probes = {"parent": [], "change": []}
        for i in range(SETUP_PROBES):
            order = [("parent", parent), ("change", ROOT)]
            if i % 2:
                order.reverse()
            for side, tree in order:
                probes[side].append(setup_probe(tree, w, SEED))
        before, after = probes["parent"], probes["change"]
        print(f"{w:14} {SETUP_PROBES:>12} {statistics.median(before):10.4g} "
              f"{statistics.median(after):10.4g} {iqr(before):11.4g} {iqr(after):11.4g}")


if __name__ == "__main__":
    main()
