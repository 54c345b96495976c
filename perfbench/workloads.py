"""The benchmark's three workloads, built from the public symrees API.

Each workload is a fixed list of jobs run one after another in one process
and one thread (a closed loop: a CLI user waits for each verdict before
starting the next).  A job has three parts: ``build`` makes its input
(a configuration, or a CLI argument list) outside the timed region, ``run``
is the timed call into symrees, and ``answer`` reduces the result to the
values pinned in ``answers.json``.

Verify jobs are taken by name from ``scripts/run_verifications.build_jobs``,
so the benchmark keeps no second list of configurations.

The linear form u drawn from the verify seed changes the cost of a
length-route run a lot: one truncated route of ``fermat-4`` over Q(zeta_4)
takes 2.5 s to 9.3 s depending on u (seeds 0-10), one of ``fermat-5-f31``
3.8 s to 5.7 s, and a whole ``fermat-4-f13`` verify 1.2 s to 1.8 s.  Over
F_13, 19 of the seeds 0-1000 also exhaust the 32 draws of
``pick_generic_linear_form`` and fail.  A benchmark that passed its
``--seed`` to these jobs would measure the draw rather than the code, so
they always run with verify seed 0 (the u of the baseline sizes in
ROADMAP.md).  ``grid-2x2``, ``fermat-3`` and ``three-points`` take the
benchmark seed.

Left out on purpose:
* ``grid-2x3`` over Q(zeta_6): 36-40 s per pass on the same ``mul2`` path
  as ``fermat-4``;
* ``fermat-5`` over Q(zeta_5): over 300 s today; its own benchmark change
  once the one-pass local length has landed;
* ``fermat-5`` over F_11: no linear form validates there (every line of the
  plane over F_11 meets a point), the suite's recorded xfail.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import symrees.cli
import symrees.configs
import symrees.verifier
from run_verifications import build_jobs

WORKLOADS = {
    "length-char0": ("fermat-4", "grid-2x2"),
    "length-prime": ("fermat-4-f13", "fermat-5-f31"),
    "ideal-build": (
        "fermat-5-points-ideal",
        "fermat-5-memberships",
        "symbolic-power-fermat-3-r3",
        "symbolic-power-fermat-4-r2",
        "membership-fermat-3-r3",
        "fermat-3",
        "three-points",
    ),
}

FIXED_SEED_JOBS = {"fermat-4", "fermat-4-f13", "fermat-5-f31"}
FIXED_VERIFY_SEED = 0

# CLI inputs of ideal-build: (config JSON, arguments after --input <file>)
CLI_JOBS = {
    "symbolic-power-fermat-3-r3": ({"kind": "fermat", "n": 3}, ["--r", "3", "--ideal"]),
    "symbolic-power-fermat-4-r2": ({"kind": "fermat", "n": 4}, ["--r", "2", "--ideal"]),
    "membership-fermat-3-r3": (
        {"kind": "fermat", "n": 3},
        ["--r", "3", "--poly", "(y^3 - z^3)*(z^3 - x^3)*(x^3 - y^3)"],
    ),
}


class Job:
    __slots__ = ("name", "build", "run", "answer")

    def __init__(self, name, build, run, answer):
        self.name = name
        self.build = build
        self.run = run
        self.answer = answer


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def verify_answer(report):
    """What a verify run proved; ``stable_at``, ``u`` and ``timings_ms`` are left out."""
    d = report.to_json_dict()
    lengths = d["lengths"] or {}
    confirmation = d["confirmation"]
    return {
        "verdict": d["verdict"],
        "lhs": lengths.get("lhs"),
        "rhs": lengths.get("rhs"),
        "confirmation": confirmation and {
            "lhs": confirmation["lhs"], "verdict": confirmation["verdict"]},
        "product_check": d["product_check"],
        "memberships": d["memberships"],
    }


def _verify_job(name, make, seed):
    return Job(
        name,
        make,
        lambda cfg: symrees.verifier.verify(cfg, seed=seed),
        verify_answer,
    )


def _cli_job(name, argv):
    def run(args):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = symrees.cli.run(args)
        return code, out.getvalue()

    return Job(
        name,
        lambda: list(argv),
        run,
        lambda result: {"exit": result[0], "stdout_sha256": _digest(result[1])},
    )


def write_cli_inputs(inputs_dir: Path):
    """Write the configuration files the CLI jobs read; returns name -> argv."""
    inputs_dir.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for name, (config, extra) in CLI_JOBS.items():
        path = inputs_dir / f"{name}.json"
        path.write_text(json.dumps(config, sort_keys=True) + "\n")
        argvs[name] = ["symbolic-power", "--input", str(path)] + extra
    return argvs


def build_workload(workload: str, seed: int, inputs_dir: Path):
    """The workload's jobs, in run order."""
    makers = dict(build_jobs(False))
    makers["fermat-5"] = lambda: symrees.configs.fermat(5)
    argvs = write_cli_inputs(inputs_dir) if workload == "ideal-build" else {}
    jobs = []
    for name in WORKLOADS[workload]:
        if name in argvs:
            jobs.append(_cli_job(name, argvs[name]))
        elif name == "fermat-5-points-ideal":
            jobs.append(Job(
                name,
                makers["fermat-5"],
                lambda cfg: cfg.points_ideal(),
                lambda ideal: {
                    "generators": len(ideal.generators),
                    "sha256": _digest("\n".join(str(g) for g in ideal.generators)),
                },
            ))
        elif name == "fermat-5-memberships":
            jobs.append(Job(
                name,
                makers["fermat-5"],
                lambda cfg: symrees.verifier.membership_results(
                    cfg.points, cfg.witnesses, cfg.ring),
                lambda memberships: {"memberships": memberships},
            ))
        else:
            verify_seed = FIXED_VERIFY_SEED if name in FIXED_SEED_JOBS else seed
            jobs.append(_verify_job(name, makers[name], verify_seed))
    return jobs
