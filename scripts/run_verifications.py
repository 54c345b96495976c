#!/usr/bin/env python3
"""Run the built-in configurations end to end and write their reports.

Usage:
    python scripts/run_verifications.py [--out-dir reports] [--fast | --scale]
                                        [--seed N] [--compare DIR]

``--fast`` keeps only the prime-field runs and the small char-0 ones; the full
list adds fermat-4, fermat-5 and grid-2x3 in characteristic zero.
After the built-ins, in the default and ``--fast`` modes, come five pairs
that are not established, one for each shape such a report takes: a witness
outside its symbolic power on the product and on the length route, an
infinite length, and lhs > rhs over Q(zeta_4) (the exact char-0 run after
F_p) and over F_13.
``--scale`` runs the larger configurations of the scale sweep in ROADMAP.md
that verify, in place of the built-ins: grids to 5x5 and 3x7 and the Fermat
configurations to n = 16 (a name without ``-fP`` is over Q(zeta_k); over
F_67 the 32 draws of the linear form all meet the points, and the line
enumeration finds one).
A configuration that raises a package error gets a row with the CLI's exit
code for it (2 bad input, 3 a budget ran out, 4 a bug) and no report, and
the run goes on.
``--compare DIR`` diffs each report against ``DIR/<name>.json`` (a previous
``--out-dir``), ignoring ``timings_ms``, prints the keys that differ and exits
1 on any difference; a configuration without a report counts as one.
"""

import argparse
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from symrees.cli import exit_code
from symrees.configs import WitnessPair, fermat, grid_example, three_points
from symrees.errors import SymreesError
from symrees.fields import PrimeField, RationalField
from symrees.points import ProjectivePoint
from symrees.verifier import verify


def build_jobs(fast: bool):
    Q = RationalField()
    jobs = [
        ("three-points", lambda: three_points(
            ProjectivePoint(Q, [1, 0, 0]),
            ProjectivePoint(Q, [0, 1, 0]),
            ProjectivePoint(Q, [0, 0, 1]),
        )),
        ("fermat-3", lambda: fermat(3)),
        ("fermat-4-f13", lambda: fermat(4, field=PrimeField(13, root_order=4))),
        ("fermat-5-f31", lambda: fermat(5, field=PrimeField(31, root_order=5))),
        ("grid-2x2", lambda: grid_example(2, 2)),
    ]
    if not fast:
        jobs += [
            ("fermat-4", lambda: fermat(4)),
            ("fermat-5", lambda: fermat(5)),
            ("grid-2x3", lambda: grid_example(2, 3)),
        ]
    return jobs


def _rewitnessed(make, change):
    """A maker of ``make()``'s configuration with the witness pair
    ``change(witnesses, x, y)`` in place of its own."""
    def made():
        cfg = make()
        cfg.witnesses = change(cfg.witnesses, cfg.ring.var("x"), cfg.ring.var("y"))
        return cfg
    return made


def negative_jobs():
    built = dict(build_jobs(False))
    return [
        ("three-points-nonmember", _rewitnessed(
            built["three-points"], lambda w, x, y: WitnessPair(w.xi1, w.r1, x, w.r2))),
        ("grid-2x2-nonmember", _rewitnessed(
            built["grid-2x2"], lambda w, x, y: WitnessPair(x * w.xi1 + y, w.r1, w.xi2, w.r2))),
        ("grid-2x2-infinite", _rewitnessed(
            built["grid-2x2"], lambda w, x, y: WitnessPair(w.xi2, w.r2, w.xi2, w.r2))),
        ("fermat-4-above", _rewitnessed(
            built["fermat-4"], lambda w, x, y: WitnessPair(w.xi1 * x, w.r1, w.xi2, w.r2))),
        ("fermat-4-f13-above", _rewitnessed(
            built["fermat-4-f13"], lambda w, x, y: WitnessPair(w.xi1 * x, w.r1, w.xi2, w.r2))),
    ]


def scale_jobs():
    return [
        ("grid-3x3", lambda: grid_example(3, 3)),
        ("grid-2x5", lambda: grid_example(2, 5)),
        ("grid-3x4", lambda: grid_example(3, 4)),
        ("grid-3x5", lambda: grid_example(3, 5)),
        ("grid-5x5", lambda: grid_example(5, 5)),
        ("grid-3x7", lambda: grid_example(3, 7)),
        ("fermat-6", lambda: fermat(6)),
        ("fermat-7", lambda: fermat(7)),
        ("fermat-8", lambda: fermat(8)),
        ("fermat-10-f41", lambda: fermat(10, field=PrimeField(41, root_order=10))),
        ("fermat-11-f199", lambda: fermat(11, field=PrimeField(199, root_order=11))),
        ("fermat-11-f67", lambda: fermat(11, field=PrimeField(67, root_order=11))),
        ("fermat-12-f97", lambda: fermat(12, field=PrimeField(97, root_order=12))),
        ("fermat-13-f131", lambda: fermat(13, field=PrimeField(131, root_order=13))),
        ("fermat-16-f257", lambda: fermat(16, field=PrimeField(257, root_order=16))),
    ]


def summary_detail(report):
    """The summary line's account of a report: its lengths, its product
    equation, with ``!=`` when the product check fails, or a failed witness."""
    if report.lengths:
        lhs, rhs = report.lengths["lhs"], report.lengths["rhs"]
        return f"lhs = rhs = {rhs}" if lhs == rhs else f"lhs = {lhs}, rhs = {rhs}"
    if report.product_check:
        pc = report.product_check
        relation = "=" if pc["holds"] else "!="
        return f"{pc['d1']}*{pc['d2']} {relation} {pc['r1']}*{pc['r2']}*{pc['e']}"
    return "a witness not a member"


def differing_keys(new, old, prefix=""):
    """Dotted paths at which two report dicts differ, ``timings_ms`` aside."""
    if not (isinstance(new, dict) and isinstance(old, dict)):
        return [] if new == old else [prefix or "<report>"]
    out = []
    for key in sorted(set(new) | set(old)):
        if prefix or key != "timings_ms":
            path = f"{prefix}.{key}" if prefix else key
            out += differing_keys(new.get(key), old.get(key), path)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--fast", action="store_true")
    mode.add_argument("--scale", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--compare", metavar="DIR")
    args = ap.parse_args()

    outdir = pathlib.Path(args.out_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    rows = []
    differences = 0
    jobs = scale_jobs() if args.scale else build_jobs(args.fast) + negative_jobs()
    for name, make in jobs:
        t0 = time.monotonic()
        path = outdir / f"{name}.json"
        try:
            report = verify(make(), seed=args.seed)
        except SymreesError as exc:
            elapsed = round(time.monotonic() - t0, 2)
            path.unlink(missing_ok=True)
            rows.append((name, None, "exit", str(exc), elapsed))
            print(f"{name:22s} {'exit ' + str(exit_code(exc)):9s} "
                  f"{type(exc).__name__:28s} {exc} {elapsed:7.2f}s")
            if args.compare:
                differences += 1
                print(f"  no report to compare with {args.compare}/{name}.json")
            continue
        elapsed = round(time.monotonic() - t0, 2)
        text = json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
        path.write_text(text)
        detail = summary_detail(report)
        rows.append((name, report.method, report.verdict, detail, elapsed))
        print(f"{name:22s} {report.method:9s} {report.verdict:28s} {detail:22s} {elapsed:7.2f}s")
        if args.compare:
            old = pathlib.Path(args.compare) / f"{name}.json"
            keys = (differing_keys(json.loads(text), json.loads(old.read_text()))
                    if old.exists() else [f"no {old}"])
            if keys:
                differences += 1
                print(f"  differs from {old}: {', '.join(keys)}")
    verified = sum(1 for r in rows if r[2] == "condition-verified")
    print(f"\n{verified}/{len(rows)} configurations verified; reports in {outdir}/")
    if args.compare:
        print(f"{differences}/{len(rows)} reports differ from {args.compare}/ "
              "(timings_ms ignored)")
        if differences:
            sys.exit(1)


if __name__ == "__main__":
    main()
