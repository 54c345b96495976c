import hashlib
import json
import subprocess
import sys

import pytest

from symrees.cli import (
    EXIT_INPUT_ERROR,
    EXIT_NOT_ESTABLISHED,
    EXIT_VERIFIED,
    exit_code,
    load_configuration,
    run,
)
from symrees.errors import InputError, InvariantError, ResourceLimitError


def _normalized(path):
    with open(path) as fh:
        obj = json.load(fh)
    obj["timings_ms"] = None
    return obj


def test_verify_fermat3(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify-fermat", "--n", "3", "--json", "--out", str(out)])
    captured = capsys.readouterr().out
    assert code == EXIT_VERIFIED
    assert "method: prop-1.2" in captured
    assert "verdict: condition-verified" in captured
    obj = json.loads(out.read_text())
    assert obj["schema"] == 1
    assert obj["method"] == "prop-1.2"
    assert obj["product_check"]["e"] == 12


def test_verify_fermat2_rejected(capsys):
    code = run(["verify-fermat", "--n", "2"])
    assert code == EXIT_INPUT_ERROR


def test_verify_grid22(capsys, tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify-grid", "--m", "2", "--n", "2", "--json", "--out", str(out)])
    assert code == EXIT_VERIFIED
    obj = json.loads(out.read_text())
    assert obj["method"] == "thm-2.1"
    assert obj["lengths"] == {"lhs": 48, "rhs": 48, "stable_at": obj["lengths"]["stable_at"]}


def test_verify_three_points_default(capsys):
    code = run(["verify-three-points"])
    assert code == EXIT_VERIFIED


def test_three_points_collinear_input_surfaces_as_error(tmp_path, capsys):
    cfgfile = tmp_path / "pts.json"
    cfgfile.write_text(json.dumps({
        "kind": "three-points",
        "field": {"kind": "rational"},
        "points": [["1", "0", "0"], ["0", "1", "0"], ["1", "1", "0"]],
    }))
    code = run(["verify-three-points", "--input", str(cfgfile)])
    assert code == EXIT_INPUT_ERROR
    assert "collinear" in capsys.readouterr().err


def test_three_points_bare_pointset_json(tmp_path):
    # the plain point-set format (no "kind") is accepted by verify-three-points
    cfgfile = tmp_path / "pts.json"
    cfgfile.write_text(json.dumps({
        "field": {"kind": "rational"},
        "points": [["1", "0", "0"], ["0", "1", "0"], ["1", "2", "1"]],
    }))
    assert run(["verify-three-points", "--input", str(cfgfile)]) == EXIT_VERIFIED


def test_three_points_with_cyclotomic_coordinates(tmp_path):
    cfgfile = tmp_path / "pts.json"
    cfgfile.write_text(json.dumps({
        "kind": "three-points",
        "field": {"kind": "cyclotomic", "n": 4},
        "points": [["1", "0", "0"], ["0", "w", "1"], ["w", "1", "1"]],
    }))
    assert run(["verify-three-points", "--input", str(cfgfile)]) == EXIT_VERIFIED


def test_verify_custom_with_degenerate_witnesses(tmp_path):
    # the same witness twice keeps memberships but cannot satisfy the
    # criterion; the run must end not-established with exit code 1
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "kind": "custom",
        "label": "degenerate",
        "field": {"kind": "rational"},
        "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "witnesses": {"xi1": "x*y*z", "r1": 2, "xi2": "x*y*z", "r2": 2},
    }))
    code = run(["verify-custom", "--input", str(cfgfile)])
    assert code == EXIT_NOT_ESTABLISHED


def test_fast_mode_flag(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify-fermat", "--n", "3", "--char", "7", "--json", "--out", str(out)])
    assert code == EXIT_VERIFIED
    obj = json.loads(out.read_text())
    assert obj["field"] == {"kind": "prime", "p": 7, "n": 3}
    assert "characteristic-p check" in obj["notes"]


def test_out_alone_writes_the_report(tmp_path, capsys):
    alone, flagged = tmp_path / "alone.json", tmp_path / "flagged.json"
    assert run(["verify-fermat", "--n", "3", "--out", str(alone)]) == EXIT_VERIFIED
    assert "over Q(zeta_3)" in capsys.readouterr().out
    assert run(["verify-fermat", "--n", "3", "--json", "--out", str(flagged)]) == EXIT_VERIFIED
    assert _normalized(alone) == _normalized(flagged)
    assert run(["verify-fermat", "--n", "3", "--json"]) == EXIT_INPUT_ERROR


def test_small_field_seed_that_exhausts_its_draws(capsys):
    # seed 53 draws no valid line over F_13 in 32 tries, but 16 of the 183
    # lines avoid the 19 points; the enumeration finds one
    assert run(["verify-fermat", "--n", "4", "--char", "13", "--seed", "53"]) == EXIT_VERIFIED


def test_json_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["verify-grid", "--m", "2", "--n", "2", "--seed", "5", "--json", "--out", str(a)]) == 0
    assert run(["verify-grid", "--m", "2", "--n", "2", "--seed", "5", "--json", "--out", str(b)]) == 0
    na, nb = _normalized(a), _normalized(b)
    assert na == nb
    # byte identity after stripping the timing block
    ta = json.dumps(na, sort_keys=True)
    tb = json.dumps(nb, sort_keys=True)
    assert ta == tb


def test_show_config(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"kind": "fermat", "n": 3}))
    code = run(["show-config", "--input", str(cfgfile)])
    assert code == EXIT_VERIFIED
    obj = json.loads(capsys.readouterr().out)
    assert obj["witnesses"]["r1"] == 3
    assert len(obj["points"]) == 12


def test_symbolic_power_membership_command(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"kind": "fermat", "n": 3}))
    code = run(["symbolic-power", "--input", str(cfgfile), "--r", "1", "--poly", "x*(y^3 - z^3)"])
    assert code == EXIT_VERIFIED
    assert "yes" in capsys.readouterr().out
    code = run(["symbolic-power", "--input", str(cfgfile), "--r", "1", "--poly", "x"])
    assert "no" in capsys.readouterr().out


def test_symbolic_power_ideal_command(tmp_path, capsys):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "kind": "three-points",
        "field": {"kind": "rational"},
        "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
    }))
    code = run(["symbolic-power", "--input", str(cfgfile), "--r", "1", "--ideal"])
    assert code == EXIT_VERIFIED
    lines = capsys.readouterr().out.strip().splitlines()
    assert set(lines) == {"x*y", "x*z", "y*z"}


@pytest.mark.parametrize("n, r, digest", [
    (3, 3, "d1718fcafad154c31ef33cc57d58e5184f9db150780a12143f1e7a94f1ff7b17"),
    (4, 2, "6a777a96d3f71cefca22c4c97ee406c02a63a6f750f7f4760a05a78f7db08584"),
])
def test_symbolic_power_ideal_output_is_pinned(tmp_path, capsys, n, r, digest):
    # the printed reduced basis over Q(zeta_n), byte for byte: the scaling of
    # intermediate basis elements must not show in the answer
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"kind": "fermat", "n": n}))
    code = run(["symbolic-power", "--input", str(cfgfile), "--r", str(r), "--ideal"])
    assert code == EXIT_VERIFIED
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_cap_exceeded_maps_to_exit_three(capsys):
    from symrees.cli import EXIT_RESOURCE

    code = run(["verify-grid", "--m", "2", "--n", "2", "--cap", "5"])
    assert code == EXIT_RESOURCE
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("argv, uncapped", [
    (["verify-fermat", "--n", "3"], EXIT_VERIFIED),
    (["verify-grid", "--m", "2", "--n", "2"], EXIT_VERIFIED),
    (["verify-custom", "--input"], EXIT_NOT_ESTABLISHED),
], ids=["product-route", "length-route", "length-route-nonmember"])
def test_cap_below_three_is_bad_input_on_every_route(tmp_path, capsys, argv, uncapped):
    # x*y + z is not homogeneous and misses (0 : 0 : 1): a length-route pair
    # whose gate fails before any DS run could read the cap
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "kind": "custom",
        "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "witnesses": {"xi1": "x*y + z", "r1": 1, "xi2": "x*y*z", "r2": 1},
    }))
    if argv[-1] == "--input":
        argv = argv + [str(cfgfile)]
    assert run(argv) == uncapped
    capsys.readouterr()
    assert run(argv + ["--cap", "1"]) == EXIT_INPUT_ERROR
    assert "cap" in capsys.readouterr().err


def test_degree_past_the_packed_fields_maps_to_exit_three(tmp_path, capsys):
    from symrees.cli import EXIT_RESOURCE
    from symrees.groebner import MAX_DEGREE

    # both witnesses lie in the ideals of the three points; the height of
    # (xi1, xi2) needs a Groebner basis of a degree-(MAX_DEGREE + 2) form
    # (over F_7, where the membership test of so long a form is cheap)
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({
        "kind": "custom",
        "points": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
        "witnesses": {"xi1": f"x^{MAX_DEGREE}*y*z", "r1": 1, "xi2": "x*y + y*z + x*z", "r2": 1},
    }))
    code = run(["verify-custom", "--input", str(cfgfile), "--char", "7"])
    assert code == EXIT_RESOURCE
    assert "degree" in capsys.readouterr().err


def test_characteristic_without_root_rejected(capsys):
    # F_5 has no third root of unity, so fast mode cannot host the n = 3 grid
    assert run(["verify-fermat", "--n", "3", "--char", "5"]) == EXIT_INPUT_ERROR


def test_missing_input_file(capsys):
    assert run(["verify-custom", "--input", "/nonexistent/cfg.json"]) == EXIT_INPUT_ERROR


def test_bad_json_kind(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"kind": "mystery"}))
    assert run(["verify-custom", "--input", str(cfgfile)]) == EXIT_INPUT_ERROR
    cfgfile.write_text(json.dumps([["1", "0", "0"]]))  # not an object
    assert run(["verify-custom", "--input", str(cfgfile)]) == EXIT_INPUT_ERROR
    assert run(["verify-three-points", "--input", str(cfgfile)]) == EXIT_INPUT_ERROR
    cfgfile.write_text("{not json")
    assert run(["verify-custom", "--input", str(cfgfile)]) == EXIT_INPUT_ERROR


def test_malformed_config_missing_keys(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"kind": "fermat"}))  # no n
    assert run(["verify-custom", "--input", str(cfgfile)]) == EXIT_INPUT_ERROR
    cfgfile.write_text(json.dumps({"kind": "custom", "points": [["1", "0", "0"]]}))
    assert run(["verify-custom", "--input", str(cfgfile)]) == EXIT_INPUT_ERROR
    # a field that is not an object, and numbers where text is expected
    custom = {"kind": "custom", "points": [["1", "0", "0"]],
              "witnesses": {"xi1": "x", "r1": 1, "xi2": "y", "r2": 1}}
    bad = [{**custom, "field": field} for field in (None, "rational", 7, [])]
    bad += [{"kind": "grid", "m": 2, "n": 2, "field": None},
            {"kind": "fermat", "n": 3, "field": "rational"},
            {**custom, "points": [[1, 0, 0]]},
            {**custom, "witnesses": {**custom["witnesses"], "xi1": 5}},
            {"kind": "two-pencils", "A": ["1", "0", "0"], "B": ["0", "1", "0"],
             "f_factors": [1, "y + z"], "g_factors": ["z - x", "z + x"]}]
    # integer fields take JSON integers only: no float, boolean, string or null
    bad += [{"kind": "fermat", "n": n} for n in (3.7, 3.0, True, "3", None)]
    bad += [{"kind": "grid", "m": m, "n": 2} for m in (2.5, False)]
    bad += [{"kind": "grid", "m": 2, "n": "2"}]
    bad += [{**custom, "witnesses": {**custom["witnesses"], key: v}}
            for key in ("r1", "r2") for v in (1.9, 1.0, True, "1")]
    bad += [{**custom, "field": field} for field in (
        {"kind": "cyclotomic", "n": 3.7}, {"kind": "cyclotomic", "n": True},
        {"kind": "cyclotomic", "n": "3"}, {"kind": "prime", "p": 7.9},
        {"kind": "prime", "p": 7.0}, {"kind": "prime", "p": 7, "n": 3.0})]
    bad += [{"kind": "grid", "m": 2, "n": 2, "field": {"kind": "cyclotomic", "n": 2.0}}]
    for obj in bad:
        cfgfile.write_text(json.dumps(obj))
        assert run(["verify-custom", "--input", str(cfgfile)]) == EXIT_INPUT_ERROR, obj


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "symrees", "verify-three-points"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "condition-verified" in proc.stdout


def test_load_custom_configuration_roundtrip():
    cfg = load_configuration({
        "kind": "two-pencils",
        "field": {"kind": "rational"},
        "A": ["1", "0", "0"],
        "B": ["0", "1", "0"],
        "f_factors": ["y - z", "y + z"],
        "g_factors": ["z - x", "z + x"],
    })
    assert len(cfg.points) == 6
    assert cfg.witnesses.r1 == 4


def test_internal_error_maps_to_exit_four(monkeypatch, capsys):
    # ValueError, KeyError and TypeError mean bad input only while the JSON
    # is read and loaded; raised anywhere else they are a bug, like InvariantError
    import symrees.cli
    from symrees.cli import EXIT_INTERNAL
    from symrees.errors import InvariantError

    for exc in (InvariantError("verdicts disagree across seeds"), ValueError("not an input problem")):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(symrees.cli, "verify", broken)
        assert run(["verify-three-points"]) == EXIT_INTERNAL
        assert "bug" in capsys.readouterr().err


@pytest.mark.parametrize("exc, code", [
    (ResourceLimitError("the cap ran out"), 3),
    (InputError("a bad point"), 2),
    (OSError("no such file"), 2),
    (InvariantError("verdicts disagree across seeds"), 4),
])
def test_one_exit_code_table(monkeypatch, capsys, exc, code):
    # the table run() answers with, which scripts/run_verifications.py reads too
    import symrees.cli

    def broken(*args, **kwargs):
        raise exc

    assert exit_code(exc) == code
    monkeypatch.setattr(symrees.cli, "verify", broken)
    assert run(["verify-three-points"]) == code
    assert ("bug" in capsys.readouterr().err) == (code == 4)
