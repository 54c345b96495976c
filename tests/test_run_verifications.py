"""The summary lines, exit codes and reports of ``scripts/run_verifications.py``."""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "scripts"))

import run_verifications
from run_verifications import _rewitnessed, build_jobs, differing_keys, negative_jobs, summary_detail

from symrees import cli
from symrees.configs import WitnessPair
from symrees.verifier import VERDICT_NOT_ESTABLISHED, VERDICT_VERIFIED, verify


def test_product_detail_is_an_equation_when_the_check_holds():
    report = verify(dict(build_jobs(True))["fermat-3"](), seed=0)
    assert report.verdict == VERDICT_VERIFIED and report.product_check["holds"]
    assert summary_detail(report) == "9*8 = 3*2*12"


def test_product_detail_says_unequal_when_the_check_fails():
    make = _rewitnessed(dict(build_jobs(True))["fermat-3"],
                        lambda w, x, y: WitnessPair(w.xi1, w.r1, w.xi1, w.r1))
    report = verify(make(), seed=0)
    assert report.verdict == VERDICT_NOT_ESTABLISHED and not report.product_check["holds"]
    assert summary_detail(report) == "9*9 != 3*3*12"


REPORTS = pathlib.Path(__file__).resolve().parent / "data" / "reports.json"


def test_reports_match_the_recorded_ones():
    # reports.json holds the 13 jobs' seed-0 reports without timings_ms
    # (the --out-dir files of run_verifications.py, keyed by job name): it
    # pins u, stable_at, the notes and the confirmation's seed and u
    recorded = json.loads(REPORTS.read_text())
    jobs = build_jobs(False) + negative_jobs()
    assert sorted(name for name, _ in jobs) == sorted(recorded)
    differing = {}
    for name, make in jobs:
        keys = differing_keys(verify(make(), seed=0).to_json_dict(), recorded[name])
        if keys:
            differing[name] = keys
    assert differing == {}


def test_exit_codes_are_the_cli_table():
    assert run_verifications.exit_code is cli.exit_code
