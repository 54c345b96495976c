from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrees.configs import WitnessPair, fermat, grid_example, three_points
from symrees.errors import (
    CapExceededError,
    GenericityExhaustedError,
    InputError,
    MembershipFailedError,
    NotHomogeneousError,
)
from symrees.fields import PrimeField, RationalField
from symrees.ideals import INFINITE, Ideal
from symrees.points import PointSet, ProjectivePoint, base_ring, points_ideal
from symrees.polynomials import Polynomial
from symrees.verifier import (
    METHOD_HOMOGENEOUS,
    METHOD_LENGTH,
    VERDICT_NOT_ESTABLISHED,
    VERDICT_VERIFIED,
    GenericLinearForm,
    check_condition_by_length,
    check_homogeneous_condition,
    default_cap,
    local_length_at_origin,
    pick_generic_linear_form,
    verify,
)

Q = RationalField()
R = base_ring(Q)
x, y, z = R.var("x"), R.var("y"), R.var("z")


def P(*coords, field=Q):
    return ProjectivePoint(field, list(coords))


# --- generic linear forms ---------------------------------------------------------


def test_pick_generic_form_single_point():
    H = PointSet([P(0, 0, 1)])
    u = pick_generic_linear_form(H, seed=0)
    assert u.colength == 1
    assert not Q.is_zero(u.polynomial.evaluate((0, 0, 1)))


def test_pick_generic_form_two_points_colength():
    H = PointSet([P(1, 0, 0), P(0, 1, 0)])
    u = pick_generic_linear_form(H, seed=0)
    assert u.colength == 2
    # hand-checked instance: (x + y + z, z, x*y) has basis {z, x + y, x^2}
    # with standard monomials {1, x}
    I = points_ideal(H, R)
    manual = Ideal(list(I.generators) + [x + y + z], ring=R)
    assert manual.vector_space_dimension() == 2


def test_pick_generic_form_is_deterministic():
    H = PointSet([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)])
    u1 = pick_generic_linear_form(H, seed=7)
    u2 = pick_generic_linear_form(H, seed=7)
    assert u1.polynomial == u2.polynomial
    assert u1.draws == u2.draws


def test_genericity_exhausted_over_tiny_field():
    # every line of the projective plane over F_3 meets the full plane,
    # so no draw can avoid all thirteen points
    F = PrimeField(3)
    pts = []
    for a in range(3):
        for b in range(3):
            pts.append(ProjectivePoint(F, [a, b, 1]))
    for a in range(3):
        pts.append(ProjectivePoint(F, [a, 1, 0]))
    pts.append(ProjectivePoint(F, [1, 0, 0]))
    H = PointSet(pts)
    with pytest.raises(GenericityExhaustedError):
        pick_generic_linear_form(H, seed=0)


# --- local length -----------------------------------------------------------------


def test_local_length_maximal_ideal():
    val, _ = local_length_at_origin(Ideal([x, y, z]), cap=16)
    assert val == 1


def test_local_length_fat_direction():
    val, _ = local_length_at_origin(Ideal([x, y, z**2]), cap=16)
    assert val == 2


def test_local_length_square_corner():
    from symrees.polynomials import PolyRing

    S2 = PolyRing(Q, ("x", "y"))
    a, b = S2.var("x"), S2.var("y")
    J = Ideal([a**2, b**2], ring=S2)
    val, n = local_length_at_origin(J, cap=16)
    assert val == 4
    assert n is not None
    # in three variables the same generators leave the z-axis through the
    # origin, so the local length is infinite
    S3 = base_ring(Q)
    J3 = Ideal([S3.var("x") ** 2, S3.var("y") ** 2], ring=S3)
    assert local_length_at_origin(J3, cap=16)[0] == INFINITE


def test_local_length_infinite_certificate():
    from symrees.polynomials import PolyRing

    S2 = PolyRing(Q, ("x", "y"))
    a = S2.var("x")
    val, n = local_length_at_origin(Ideal([a**2], ring=S2), cap=16)
    assert val == INFINITE
    assert n is None
    b = S2.var("y")
    # (x^2, xy) = (x) ∩ (x^2, y): the line x = 0 through the origin, with an
    # embedded point there
    assert local_length_at_origin(Ideal([a**2, a * b], ring=S2), cap=16) == (INFINITE, None)
    # the line x = 0 through the origin and the line y = -1 away from it
    assert local_length_at_origin(Ideal([a * (1 + b)], ring=S2), cap=16) == (INFINITE, None)


def test_local_length_component_away_from_origin():
    from symrees.polynomials import PolyRing

    S2 = PolyRing(Q, ("x", "y"))
    a, b = S2.var("x"), S2.var("y")
    # one simple point at the origin, another at x = 1
    val, _ = local_length_at_origin(Ideal([a * (a - 1), b], ring=S2), cap=16)
    assert val == 1
    # no point at the origin at all
    val, _ = local_length_at_origin(Ideal([a, b - 1], ring=S2), cap=16)
    assert val == 0
    # (x(y-1), y(y-1)) = (y - 1) ∩ (x, y): a line away from the origin plus
    # the reduced point at the origin
    val, _ = local_length_at_origin(Ideal([a * (b - 1), b * (b - 1)], ring=S2), cap=16)
    assert val == 1


def test_local_length_cap_exceeded():
    from symrees.polynomials import PolyRing

    S2 = PolyRing(Q, ("x", "y"))
    a, b = S2.var("x"), S2.var("y")
    with pytest.raises(CapExceededError):
        local_length_at_origin(Ideal([a**2, a * b, b**3], ring=S2), cap=3)


def test_default_cap_monotone_and_bounded():
    assert default_cap(1) >= 4
    assert default_cap(304) <= 256
    assert default_cap(96) >= 30  # must cover the 2x3 grid stabilization at 29
    for rhs in range(500):
        n = default_cap(rhs)
        assert n == min(2 * rhs + 8, 256)
        # below the hard cap, the colength floor N(N+1)/2 > 4*rhs is cleared
        assert n == 256 or n * (n + 1) // 2 > 4 * rhs


# --- homogeneous route ----------------------------------------------------------------


def test_homogeneous_check_three_points():
    cfg = three_points(P(1, 0, 0), P(0, 1, 0), P(0, 0, 1))
    rep = check_homogeneous_condition(cfg.points, cfg.witnesses, ideal=cfg.points_ideal())
    assert rep.method == METHOD_HOMOGENEOUS
    assert rep.height == 2
    assert rep.product_check == {"d1": 3, "d2": 2, "r1": 2, "r2": 1, "e": 3, "holds": True}
    assert rep.verdict == VERDICT_VERIFIED


def test_homogeneous_check_rejects_inhomogeneous():
    cfg = grid_example(2, 2)
    with pytest.raises(NotHomogeneousError):
        check_homogeneous_condition(cfg.points, cfg.witnesses)


def test_degenerate_pair_fails_on_height():
    cfg = fermat(3)
    w = cfg.witnesses
    degenerate = WitnessPair(w.xi1, w.r1, w.xi1, w.r1)
    rep = check_homogeneous_condition(cfg.points, degenerate, ideal=cfg.points_ideal())
    assert rep.height == 1
    assert rep.verdict == VERDICT_NOT_ESTABLISHED


# --- length route ------------------------------------------------------------------------


def test_length_check_grid22():
    cfg = grid_example(2, 2)
    rep = check_condition_by_length(cfg.points, cfg.witnesses, ideal=cfg.points_ideal())
    assert rep.method == METHOD_LENGTH
    assert rep.lengths["lhs"] == rep.lengths["rhs"] == 48
    assert rep.verdict == VERDICT_VERIFIED


def test_length_check_membership_precondition():
    cfg = grid_example(2, 2)
    bad = WitnessPair(x, 4, y, 2)
    with pytest.raises(MembershipFailedError):
        check_condition_by_length(cfg.points, bad, ideal=cfg.points_ideal())


def test_length_check_agrees_with_homogeneous_route():
    # cross-validation on a homogeneous pair: both routes must verify
    cfg = three_points(P(1, 0, 0), P(0, 1, 0), P(0, 0, 1))
    rep_h = check_homogeneous_condition(cfg.points, cfg.witnesses, ideal=cfg.points_ideal())
    rep_l = check_condition_by_length(cfg.points, cfg.witnesses, ideal=cfg.points_ideal())
    assert rep_h.verdict == rep_l.verdict == VERDICT_VERIFIED
    assert rep_l.lengths["lhs"] == rep_l.lengths["rhs"] == 2 * 1 * 3


def test_routes_agree_on_fermat3():
    cfg = fermat(3)
    rep_h = check_homogeneous_condition(cfg.points, cfg.witnesses, ideal=cfg.points_ideal())
    rep_l = check_condition_by_length(cfg.points, cfg.witnesses, ideal=cfg.points_ideal())
    assert rep_h.verdict == rep_l.verdict == VERDICT_VERIFIED
    assert rep_l.lengths["lhs"] == rep_l.lengths["rhs"] == 3 * 2 * 12


def _local_length_by_component_split(J):
    """Independent oracle: away = J : m^infinity = (J : a^infinity) ∩
    (J : b^infinity) is the part of J away from the origin; an element f of
    its basis with f(0) != 0 lies in the prime of every other component and
    not in m, so J : f^infinity is the origin-primary component, whose
    standard monomials are counted.  Shares no code path with the m-adic
    truncation loop."""
    ring = J.ring
    a, b = (ring.var(v) for v in ring.variables)
    away = J.saturation(a).intersect(J.saturation(b))
    f = next(p for p in away.groebner() if not ring.field.is_zero(p.constant_term()))
    return J.saturation(f).vector_space_dimension()


def test_local_length_against_component_split_oracle():
    from symrees.verifier import _eliminate_along

    cases = [
        (grid_example(2, 2), 48),
        (fermat(4, field=PrimeField(13, root_order=4)), 304),
    ]
    for cfg, expected in cases:
        u = pick_generic_linear_form(cfg.points, seed=0, ideal=cfg.points_ideal())
        w = cfg.witnesses
        a, b = _eliminate_along(u, [w.xi1, w.xi2])
        J = Ideal([a, b], ring=a.ring)
        assert _local_length_by_component_split(J) == expected
        val, _ = local_length_at_origin(J, cap=256, target=expected)
        assert val == expected


def test_truncated_colengths_are_monotone_and_stay_flat():
    from symrees.verifier import _eliminate_along, _truncated_colength

    cfg = grid_example(2, 2)
    u = pick_generic_linear_form(cfg.points, seed=0, ideal=cfg.points_ideal())
    w = cfg.witnesses
    x1s, x2s = _eliminate_along(u, [w.xi1, w.xi2])
    vals = [_truncated_colength([x1s, x2s], x1s.ring, n) for n in range(2, 22)]
    assert vals == sorted(vals)
    # once two consecutive values agree the sequence stays flat for good
    stable = next(i for i in range(1, len(vals)) if vals[i] == vals[i - 1])
    assert len(set(vals[stable - 1:])) == 1
    assert vals[-1] == 48


def _local_colengths(gens, ring, n):
    """Colengths of J + m^N for N = 1..n read off one local-order run."""
    from symrees.verifier import _local_standard_counts

    return list(accumulate(_local_standard_counts(gens, ring, n)))


def _grevlex_colengths(gens, ring, n):
    from symrees.verifier import _truncated_colength

    return [_truncated_colength(gens, ring, m) for m in range(1, n + 1)]


def test_local_order_colengths_match_grevlex_oracle():
    from symrees.verifier import _eliminate_along

    for cfg in (grid_example(2, 2), fermat(4, field=PrimeField(13, root_order=4))):
        u = pick_generic_linear_form(cfg.points, seed=0, ideal=cfg.points_ideal())
        w = cfg.witnesses
        xv = cfg.ring.var("x")
        pairs = [
            (w.xi1, w.xi2),          # the witness pair
            (w.xi1 * xv, w.xi2),     # perturbed: lhs > rhs
            (w.xi1, w.xi2 * w.xi2),  # product: twice the intersection number
        ]
        for f, g in pairs:
            a, b = _eliminate_along(u, [f, g])
            gens = [p for p in (a, b) if not p.is_zero()]
            assert _local_colengths(gens, a.ring, 20) == _grevlex_colengths(gens, a.ring, 20)


def _random_poly(ring, rnd, max_terms=4, max_deg=3, constant=True):
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        d = rnd.randint(0 if constant else 1, max_deg)
        i = rnd.randint(0, d)
        terms[(i, d - i)] = ring.field.from_int(rnd.randint(-4, 4))
    return Polynomial.from_dict(ring, terms)


@settings(max_examples=40)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, PrimeField(7)]))
def test_local_order_colengths_random_pairs(rnd, field):
    from symrees.polynomials import PolyRing

    S2 = PolyRing(field, ("x", "y"))
    f, g = _random_poly(S2, rnd), _random_poly(S2, rnd)
    gens = [p for p in (f, g) if not p.is_zero()]
    if gens:
        assert _local_colengths(gens, S2, 12) == _grevlex_colengths(gens, S2, 12)
    # a shared component through the origin makes the local length infinite
    h = _random_poly(S2, rnd, max_terms=3, max_deg=2, constant=False)
    if h.is_zero() or f.is_zero() or g.is_zero():
        return
    val, stable_at = local_length_at_origin(Ideal([f * h, g * h], ring=S2), cap=24)
    assert val == INFINITE and stable_at is None


def test_local_order_needs_truncation():
    from symrees.groebner import lead_monomial_basis, normal_form
    from symrees.polynomials import DS

    with pytest.raises(InputError):
        lead_monomial_basis([x - x**2, y], order=DS)
    # untruncated division would rewrite x as x^2, x^3, ... for ever
    with pytest.raises(InputError):
        normal_form(x, [x - x**2], DS)
    assert lead_monomial_basis([x - x**2, y], order=DS, truncate_degree=4) == ((0, 1, 0), (1, 0, 0))


def test_length_check_same_witness_twice_is_infinite():
    cfg = grid_example(2, 2)
    w = cfg.witnesses
    degenerate = WitnessPair(w.xi1, w.r1, w.xi1, w.r1)
    rep = check_condition_by_length(cfg.points, degenerate, ideal=cfg.points_ideal())
    assert rep.lengths["lhs"] == INFINITE
    assert rep.verdict == VERDICT_NOT_ESTABLISHED


def test_length_check_perturbed_witness_strictly_exceeds():
    cfg = grid_example(2, 2)
    w = cfg.witnesses
    perturbed = WitnessPair(w.xi1 * x, w.r1, w.xi2, w.r2)
    rep = check_condition_by_length(cfg.points, perturbed, ideal=cfg.points_ideal())
    lhs = rep.lengths["lhs"]
    assert lhs == INFINITE or lhs > rep.lengths["rhs"]
    assert rep.verdict == VERDICT_NOT_ESTABLISHED


# --- full verification ------------------------------------------------------------------


def test_verify_three_points():
    cfg = three_points(P(1, 0, 0), P(0, 1, 0), P(0, 0, 1))
    rep = verify(cfg)
    assert rep.method == METHOD_HOMOGENEOUS
    assert rep.verdict == VERDICT_VERIFIED
    assert rep.config["kind"] == "three-points"


def test_verify_fermat3():
    rep = verify(fermat(3))
    assert rep.method == METHOD_HOMOGENEOUS
    assert rep.verdict == VERDICT_VERIFIED
    assert rep.product_check["e"] == 12


def test_verify_grid22_runs_second_seed():
    rep = verify(grid_example(2, 2), seed=0)
    assert rep.method == METHOD_LENGTH
    assert rep.verdict == VERDICT_VERIFIED
    assert rep.confirmation is not None
    assert rep.confirmation["verdict"] == VERDICT_VERIFIED
    assert rep.confirmation["lhs"] == 48


def test_verify_times_stages_and_confirmation():
    rep = verify(grid_example(2, 2), seed=0)
    timings = rep.timings_ms
    for key in ("points_ideal", "memberships", "linear_form", "local_length", "confirmation"):
        assert isinstance(timings[key], float)
    # a flat name -> ms map whose stages fit inside the total
    assert all(isinstance(v, float) for v in timings.values())
    assert sum(v for k, v in timings.items() if k != "total") <= timings["total"] + 1.0


def test_verify_seed_independence():
    r1 = verify(grid_example(2, 2), seed=0)
    r2 = verify(grid_example(2, 2), seed=11)
    assert r1.verdict == r2.verdict == VERDICT_VERIFIED
    assert r1.lengths["lhs"] == r2.lengths["lhs"] == 48


def test_verify_membership_failure_reported_not_raised():
    cfg = grid_example(2, 2)
    cfg.witnesses = WitnessPair(x, 4, y, 2)
    rep = verify(cfg)
    assert rep.verdict == VERDICT_NOT_ESTABLISHED
    assert not all(m["member"] for m in rep.memberships)


def test_verify_fast_mode_banner():
    cfg = fermat(4, field=PrimeField(13, root_order=4))
    rep = verify(cfg)
    assert "characteristic-p check" in rep.notes
    assert rep.lengths["lhs"] == rep.lengths["rhs"] == 304


def test_report_json_shape():
    rep = verify(grid_example(2, 2))
    obj = rep.to_json_dict()
    for key in ("schema", "config", "field", "memberships", "method", "height",
                "product_check", "lengths", "u", "seed", "verdict", "timings_ms"):
        assert key in obj
    assert obj["schema"] == 1
    assert obj["verdict"] == VERDICT_VERIFIED
    assert obj["lengths"]["lhs"] == 48


def test_verify_asymmetric_pencils():
    # pencils not coming from binomial forms: two lines through (0:0:1) and
    # two through (1:0:0); the length identity 4*2*6 = 48 must still hold
    from symrees.configs import two_pencils

    a = P(0, 0, 1)
    b = P(1, 0, 0)
    cfg = two_pencils([x, x + y], [z, y + z], a, b)
    assert len(cfg.points) == 6
    rep = verify(cfg)
    assert rep.verdict == VERDICT_VERIFIED
    assert rep.lengths["lhs"] == rep.lengths["rhs"] == 48


def test_validated_form_reuse():
    cfg = grid_example(2, 2)
    ideal = cfg.points_ideal()
    u = pick_generic_linear_form(cfg.points, seed=3, ideal=ideal)
    rep = check_condition_by_length(cfg.points, cfg.witnesses, u=u, ideal=ideal)
    assert rep.verdict == VERDICT_VERIFIED
    assert rep.seed == 3
