"""Acceptance suite: one test per criterion, each printing a pass line.

Every equality here is exact (the arithmetic is exact); the only tolerances
are wall-clock budgets, asserted per criterion.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import random
import time

import pytest

from helpers import compare, s_polynomial
from symrees.cli import EXIT_NOT_ESTABLISHED, run
from symrees.configs import WitnessPair, fermat, grid_example, three_points
from symrees.errors import GenericityExhaustedError
from symrees.fields import CyclotomicField, PrimeField, RationalField
from symrees.groebner import normal_form, reduced_groebner_basis
from symrees.ideals import INFINITE, Ideal
from symrees.parsing import parse_polynomial
from symrees.points import (
    PointSet,
    ProjectivePoint,
    base_ring,
    points_ideal,
    symbolic_power_membership,
)
from symrees.polynomials import GREVLEX, LEX, BlockOrder, PolyRing, Polynomial
from symrees.verifier import (
    METHOD_HOMOGENEOUS,
    METHOD_LENGTH,
    VERDICT_NOT_ESTABLISHED,
    VERDICT_VERIFIED,
    check_condition_by_length,
    verify,
)

Q = RationalField()


def _report(name, started):
    print(f"[PASS] {name} ({round(time.monotonic() - started, 2)} s)")


# --- criterion 1: the 12-point configuration over Q(zeta_3) -----------------------------


def test_criterion_1_fermat3():
    t0 = time.monotonic()
    cfg = fermat(3)
    assert symbolic_power_membership(cfg.witnesses.xi1, cfg.points, 3)
    assert symbolic_power_membership(cfg.witnesses.xi2, cfg.points, 2)
    assert Ideal([cfg.witnesses.xi1, cfg.witnesses.xi2], ring=cfg.ring).height() == 2
    report = verify(cfg)
    pc = report.product_check
    assert pc["d1"] * pc["d2"] == 72 == pc["r1"] * pc["r2"] * pc["e"]
    assert pc["e"] == 12
    assert report.verdict == VERDICT_VERIFIED
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report("criterion 1: fermat n=3 over Q(zeta_3), product check 9*8 = 3*2*12", t0)


# --- criterion 2: n = 4 over Q(zeta_4), plus the prime fast mode ---------------------------


def test_criterion_2_fermat4_characteristic_zero():
    t0 = time.monotonic()
    cfg = fermat(4)  # alpha defaults to 2
    assert cfg.provenance["alpha"] == "2"
    report = verify(cfg)
    assert report.method == METHOD_LENGTH
    assert report.lengths["lhs"] == report.lengths["rhs"] == 304 == 4 * 4 * 19
    # the truncation oracle certificate: two consecutive N agreed
    assert report.lengths["stable_at"] is not None
    assert report.lengths["stable_at"] == 36
    assert report.verdict == VERDICT_VERIFIED
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _report("criterion 2: fermat n=4 over Q(zeta_4), lhs = rhs = 304", t0)


def test_criterion_2_fermat4_prime_fast_mode():
    t0 = time.monotonic()
    report = verify(fermat(4, field=PrimeField(13, root_order=4)))
    assert report.verdict == VERDICT_VERIFIED
    assert report.lengths["lhs"] == report.lengths["rhs"] == 304
    assert "characteristic-p check" in report.notes
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    _report("criterion 2 (fast mode): fermat n=4 over F_13 reproduces the verdict", t0)


# --- criterion 3: n = 5 in prime fast mode ------------------------------------------------


def test_criterion_3_no_valid_linear_form_exists_over_F11():
    # the obstruction, verified exhaustively: every one of the 1330 nonzero
    # coefficient triples over F_11 gives a line through some of the 28 points,
    # so the validated-linear-form route cannot run in this field
    t0 = time.monotonic()
    F = PrimeField(11, root_order=5)
    cfg = fermat(5, field=F)
    assert len(cfg.points) == 28
    for a in range(11):
        for b in range(11):
            for c in range(11):
                if (a, b, c) == (0, 0, 0):
                    continue
                values = [
                    (F.mul(a, p.coords[0]) + F.mul(b, p.coords[1]) + F.mul(c, p.coords[2])) % 11
                    for p in cfg.points
                ]
                assert 0 in values
    _report("criterion 3 (obstruction): no line over F_11 avoids the 28 points", t0)


@pytest.mark.xfail(
    strict=True,
    raises=GenericityExhaustedError,
    reason="unattainable as stated: F_11 admits no linear form avoiding all 28 "
    "configuration points (exhaustively verified above), so no u can validate "
    "and the length route cannot produce 700 over this field",
)
def test_criterion_3_fermat5_over_F11_as_stated():
    cfg = fermat(5, field=PrimeField(11, root_order=5))
    report = verify(cfg)
    assert report.lengths["lhs"] == report.lengths["rhs"] == 700


def test_criterion_3_fermat5_fast_mode_smallest_workable_prime():
    # same computation over F_31, the next prime with a fifth root of unity;
    # the stated identity 700 = 5*5*28 holds exactly
    t0 = time.monotonic()
    report = verify(fermat(5, field=PrimeField(31, root_order=5)))
    assert report.method == METHOD_LENGTH
    assert report.lengths["lhs"] == report.lengths["rhs"] == 700 == 5 * 5 * 28
    assert report.verdict == VERDICT_VERIFIED
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _report("criterion 3: fermat n=5 over F_31 fast mode, lhs = rhs = 700", t0)


def test_criterion_3_fermat5_characteristic_zero():
    # the n = 5 configuration over Q(zeta_5) itself: the length is proved by
    # one run modulo a degree-one prime of Z[zeta_5] (an upper bound on the
    # char-0 length) and Huneke's lower bound lhs >= rhs
    t0 = time.monotonic()
    report = verify(fermat(5))
    assert report.method == METHOD_LENGTH
    assert report.lengths["lhs"] == report.lengths["rhs"] == 700 == 5 * 5 * 28
    assert report.lengths["stable_at"] is not None
    assert report.lengths["stable_at"] == 55
    assert report.verdict == VERDICT_VERIFIED
    assert report.confirmation["verdict"] == VERDICT_VERIFIED
    assert report.confirmation["lhs"] == 700
    elapsed = time.monotonic() - t0
    assert elapsed < 600
    _report("criterion 3: fermat n=5 over Q(zeta_5), lhs = rhs = 700", t0)


# --- criterion 4: ten random non-collinear triples -----------------------------------------


def test_criterion_4_random_triples():
    t0 = time.monotonic()
    rng = random.Random(20260808)
    done = 0
    while done < 10:
        pts = []
        while len(pts) < 3:
            coords = [rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)]
            if not any(coords):
                continue
            cand = ProjectivePoint(Q, coords)
            if cand not in pts:
                pts.append(cand)
        try:
            cfg = three_points(*pts)
        except Exception:
            continue  # collinear draw; redraw
        t1 = time.monotonic()
        report = verify(cfg)
        per_triple = time.monotonic() - t1
        assert report.method == METHOD_HOMOGENEOUS
        assert report.verdict == VERDICT_VERIFIED
        pc = report.product_check
        assert (pc["d1"], pc["d2"], pc["r1"], pc["r2"], pc["e"]) == (3, 2, 2, 1, 3)
        assert per_triple < 5
        done += 1
    _report("criterion 4: ten random non-collinear triples verified, 3*2 = 2*1*3", t0)


# --- criterion 5: the two grids --------------------------------------------------------------


def test_criterion_5_grid_2x2():
    t0 = time.monotonic()
    cfg = grid_example(2, 2)
    assert isinstance(cfg.field, RationalField)
    assert len(cfg.points) == 6
    report = verify(cfg)
    assert report.lengths["lhs"] == report.lengths["rhs"] == 48
    assert report.verdict == VERDICT_VERIFIED
    assert time.monotonic() - t0 < 600
    _report("criterion 5a: grid 2x2 over Q, lhs = rhs = 48", t0)


def test_criterion_5_grid_2x3():
    t0 = time.monotonic()
    cfg = grid_example(2, 3)
    assert isinstance(cfg.field, CyclotomicField) and cfg.field.n == 6
    assert len(cfg.points) == 8
    report = verify(cfg)
    assert report.lengths["lhs"] == report.lengths["rhs"] == 96
    assert report.lengths["stable_at"] == 29
    assert report.verdict == VERDICT_VERIFIED
    assert time.monotonic() - t0 < 600
    _report("criterion 5b: grid 2x3 over Q(zeta_6), lhs = rhs = 96", t0)


# --- criterion 6: grid ideals and multiplicities ----------------------------------------------


def test_criterion_6_grid_ideal_identities_and_multiplicities():
    t0 = time.monotonic()
    # the nine-point grid of fermat(3) is cut out by the two cubic pencils
    cfg3 = fermat(3)
    S3 = cfg3.ring
    f3 = S3.var("y") ** 3 - S3.var("z") ** 3
    g3 = S3.var("z") ** 3 - S3.var("x") ** 3
    grid = PointSet(cfg3.points[3:])
    assert points_ideal(grid, S3).groebner().polynomials == \
        Ideal([f3, g3], ring=S3).groebner().polynomials

    # the four-point grid of the 2x2 pencils is cut out by the quadric pencils
    cfg22 = grid_example(2, 2)
    S22 = cfg22.ring
    f22 = S22.var("y") ** 2 - S22.var("z") ** 2
    g22 = S22.var("z") ** 2 - S22.var("x") ** 2
    grid22 = PointSet(cfg22.points[2:])
    assert points_ideal(grid22, S22).groebner().polynomials == \
        Ideal([f22, g22], ring=S22).groebner().polynomials

    # multiplicity of the points ideal equals the point count, everywhere
    configs = [
        cfg3,
        cfg22,
        fermat(4),
        grid_example(2, 3),
        three_points(ProjectivePoint(Q, [1, 0, 0]), ProjectivePoint(Q, [0, 1, 0]),
                     ProjectivePoint(Q, [1, 1, 1])),
        fermat(4, field=PrimeField(13, root_order=4)),
        fermat(5, field=PrimeField(31, root_order=5)),
    ]
    for cfg in configs:
        assert cfg.points_ideal().hilbert_multiplicity() == len(cfg.points), cfg.label
    _report("criterion 6: grid ideals match the pencils; multiplicity = #H in all configurations", t0)


# --- criterion 7: the inequality can fail but never reverses ------------------------------------


def _perturbed_pairs():
    """Degenerate witness pairs that keep their memberships; none can verify."""
    out = []
    g22 = grid_example(2, 2)
    S = g22.ring
    x, y, z = S.var("x"), S.var("y"), S.var("z")
    w = g22.witnesses
    lines = [x, y, z, x + y, x - z, y + z, x + y + z]
    out += [(g22, WitnessPair(w.xi1, w.r1, w.xi1, w.r1))]
    out += [(g22, WitnessPair(w.xi2, w.r2, w.xi2, w.r2))]
    out += [(g22, WitnessPair(w.xi1 * l, w.r1, w.xi2, w.r2)) for l in lines[:4]]
    out += [(g22, WitnessPair(w.xi1, w.r1, w.xi2 * l, w.r2)) for l in lines[4:]]
    out += [(g22, WitnessPair(w.xi1 * w.xi2, w.r1 + w.r2, w.xi2, w.r2))]

    tri = three_points(ProjectivePoint(Q, [1, 0, 0]), ProjectivePoint(Q, [0, 1, 0]),
                       ProjectivePoint(Q, [0, 0, 1]))
    T = tri.ring
    tx, ty, tz = T.var("x"), T.var("y"), T.var("z")
    v = tri.witnesses
    out += [(tri, WitnessPair(v.xi1, v.r1, v.xi1, v.r1))]
    out += [(tri, WitnessPair(v.xi1 * l, v.r1, v.xi2, v.r2)) for l in (tx, ty, tz, tx + ty)]
    out += [(tri, WitnessPair(v.xi1, v.r1, v.xi2 * l, v.r2)) for l in (tz, tx - ty)]

    f3 = fermat(3)
    F3 = f3.ring
    u = f3.witnesses
    out += [(f3, WitnessPair(u.xi1, u.r1, u.xi1, u.r1))]
    out += [(f3, WitnessPair(u.xi1 * F3.var("x"), u.r1, u.xi2, u.r2))]
    out += [(f3, WitnessPair(u.xi1, u.r1, u.xi2 * F3.var("y"), u.r2))]
    return out


def test_criterion_7_inequality_suite():
    t0 = time.monotonic()
    pairs = _perturbed_pairs()
    assert len(pairs) >= 20
    count_inf = count_strict = 0
    for cfg, witnesses in pairs:
        assert symbolic_power_membership(witnesses.xi1, cfg.points, witnesses.r1)
        assert symbolic_power_membership(witnesses.xi2, cfg.points, witnesses.r2)
        report = check_condition_by_length(cfg.points, witnesses)
        lhs, rhs = report.lengths["lhs"], report.lengths["rhs"]
        if lhs == INFINITE:
            count_inf += 1
        else:
            assert lhs >= rhs
            assert lhs > rhs  # these pairs cannot achieve equality
            count_strict += 1
        assert report.verdict == VERDICT_NOT_ESTABLISHED
    assert count_inf and count_strict
    _report(
        f"criterion 7: {len(pairs)} degenerate pairs, lhs >= rhs throughout "
        f"({count_inf} infinite, {count_strict} strict)", t0,
    )


def test_criterion_7_exit_code_one_via_cli(tmp_path):
    import json

    t0 = time.monotonic()
    cfgfile = tmp_path / "degenerate.json"
    cfgfile.write_text(json.dumps({
        "kind": "custom",
        "label": "degenerate-pair",
        "field": {"kind": "rational"},
        "points": [["1", "0", "0"], ["0", "1", "0"],
                   ["1", "1", "1"], ["1", "-1", "1"], ["-1", "1", "1"], ["-1", "-1", "1"]],
        "witnesses": {
            "xi1": "(y^2 - z^2)^2*(z^2 - x^2)^2",
            "r1": 4,
            "xi2": "(y^2 - z^2)^2*(z^2 - x^2)^2",
            "r2": 4,
        },
    }))
    assert run(["verify-custom", "--input", str(cfgfile)]) == EXIT_NOT_ESTABLISHED
    # a perturbed inhomogeneous pair exercising the length route end to end
    cfgfile2 = tmp_path / "degenerate2.json"
    cfgfile2.write_text(json.dumps({
        "kind": "custom",
        "label": "perturbed-pair",
        "field": {"kind": "rational"},
        "points": [["1", "0", "0"], ["0", "1", "0"],
                   ["1", "1", "1"], ["1", "-1", "1"], ["-1", "1", "1"], ["-1", "-1", "1"]],
        "witnesses": {
            "xi1": "x*(y^2 - z^2)^2*(z^2 - x^2)^2",
            "r1": 4,
            "xi2": "(y^2 - z^2)*(z^2 - x^2) + (y^2 - x^2)^2*z^2",
            "r2": 2,
        },
    }))
    code = run(["verify-custom", "--input", str(cfgfile2)])
    assert code == EXIT_NOT_ESTABLISHED
    _report("criterion 7 (cli): degenerate runs exit with code 1", t0)


# --- criterion 8: randomized kernel sweeps -----------------------------------------------------


def test_criterion_8_randomized_kernel_suites():
    t0 = time.monotonic()
    rng = random.Random(20260808)
    cases = 0

    # field axioms in all three modes
    fields = [Q, CyclotomicField(4), PrimeField(13, root_order=4)]
    for field in fields:
        for _ in range(75):
            a, b, c = (_random_scalar(field, rng) for _ in range(3))
            assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
            assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
            assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
            if a != field.zero:
                assert field.mul(a, field.inv(a)) == field.one
            cases += 1

    # monomial order laws
    for order in (GREVLEX, LEX, BlockOrder(1)):
        for _ in range(40):
            a = tuple(rng.randint(0, 5) for _ in range(4))
            b = tuple(rng.randint(0, 5) for _ in range(4))
            c = tuple(rng.randint(0, 5) for _ in range(4))
            cab = compare(order, a, b)
            assert compare(order, b, a) == -cab
            assert (cab == 0) == (a == b)
            assert compare(order, tuple(map(sum, zip(a, c))), tuple(map(sum, zip(b, c)))) == cab
            assert compare(order, a, (0, 0, 0, 0)) >= 0
            cases += 1

    # Groebner: S-pairs reduce to zero and permutation invariance
    ring = PolyRing(PrimeField(13), ("x", "y"))
    for _ in range(25):
        gens = [_random_poly(ring, rng) for _ in range(rng.randint(2, 3))]
        gens = [g for g in gens if not g.is_zero()]
        if not gens:
            continue
        gb = reduced_groebner_basis(gens)
        for i in range(len(gb.polynomials)):
            for j in range(i + 1, len(gb.polynomials)):
                s = s_polynomial(gb.polynomials[i], gb.polynomials[j])
                if not s.is_zero():
                    assert normal_form(s, gb).is_zero()
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert reduced_groebner_basis(shuffled).polynomials == gb.polynomials
        cases += 2

    # ordinary powers inside symbolic powers
    tri = three_points(ProjectivePoint(Q, [1, 0, 0]), ProjectivePoint(Q, [0, 1, 0]),
                       ProjectivePoint(Q, [0, 0, 1]))
    g22 = grid_example(2, 2)
    for cfg in (tri, g22):
        I = cfg.points_ideal()
        for r in (1, 2):
            gens = list(I.power(r).generators)
            rng.shuffle(gens)
            for g in gens[:10]:
                assert symbolic_power_membership(g, cfg.points, r)
                cases += 1

    # parse / print round trips in all three modes
    for field in fields:
        ring = base_ring(field)
        for _ in range(50):
            p = _random_poly(ring, rng, max_terms=5)
            if p.is_zero():
                continue
            assert parse_polynomial(str(p), ring) == p
            cases += 1

    assert cases >= 500
    elapsed = time.monotonic() - t0
    assert elapsed < 300
    _report(f"criterion 8: kernel property suites green on {cases} randomized cases", t0)


def _random_scalar(field, rng):
    if isinstance(field, CyclotomicField):
        return tuple(rng.randint(-9, 9) for _ in range(field.degree))
    if isinstance(field, PrimeField):
        return rng.randint(0, field.p - 1)
    from fractions import Fraction

    return field.from_fraction(Fraction(rng.randint(-30, 30), rng.randint(1, 9)))


def _random_poly(ring, rng, max_terms=3, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        m = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        if isinstance(ring.field, CyclotomicField):
            c = tuple(rng.randint(-5, 5) for _ in range(ring.field.degree))
        else:
            c = ring.field.from_int(rng.randint(-6, 6))
        terms[m] = c
    return Polynomial.from_dict(ring, terms)
