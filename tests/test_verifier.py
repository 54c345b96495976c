from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    eliminate_by_quotient,
    from_dict,
    meets_positive_dimension,
    saturation,
    standard_count_by_scan,
    truncated_colength,
    with_truncation_monomials,
)
from symrees.configs import WitnessPair, fermat, grid_example, three_points
from symrees.errors import (
    CapExceededError,
    GenericityExhaustedError,
    InputError,
    InvariantError,
    NotHomogeneousError,
)
from symrees import verifier
from symrees.fields import CyclotomicField, PrimeField, RationalField, degree_one_prime
from symrees.groebner import lead_monomial_basis, standard_count
from symrees.ideals import INFINITE, Ideal
from symrees.points import PointSet, ProjectivePoint, base_ring, points_ideal
from symrees.polynomials import DS, PolyRing, Polynomial
from symrees.verifier import (
    METHOD_HOMOGENEOUS,
    METHOD_LENGTH,
    VERDICT_NOT_ESTABLISHED,
    VERDICT_VERIFIED,
    GenericLinearForm,
    _first_truncation,
    _length,
    _local_length_mod_prime,
    check_condition_by_length,
    check_homogeneous_condition,
    local_length_at_origin,
    pick_generic_linear_form,
    verify,
)

Q = RationalField()
R = base_ring(Q)
x, y, z = R.var("x"), R.var("y"), R.var("z")


NONMEMBER_NOTE = "a witness failed its symbolic-power membership"


def P(*coords, field=Q):
    return ProjectivePoint(field, list(coords))


# --- generic linear forms ---------------------------------------------------------


def _colength_with(u, H):
    """dim_K S/(uS + I_H), computed; the verifier takes it to be #H."""
    ring = base_ring(H.field)
    gens = list(points_ideal(H, ring).generators) + [u.polynomial]
    return Ideal(gens, ring=ring).vector_space_dimension()


def test_pick_generic_form_single_point():
    H = PointSet([P(0, 0, 1)])
    u = pick_generic_linear_form(H, seed=0)
    assert _colength_with(u, H) == 1
    assert not Q.is_zero(u.polynomial.evaluate((0, 0, 1)))


def test_pick_generic_form_two_points_colength():
    H = PointSet([P(1, 0, 0), P(0, 1, 0)])
    u = pick_generic_linear_form(H, seed=0)
    assert _colength_with(u, H) == 2
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


def _plane(q):
    return [(a, b, 1) for a in range(q) for b in range(q)] + [(a, 1, 0) for a in range(q)] + [(1, 0, 0)]


def _meets(line, point, q):
    return sum(a * b for a, b in zip(line, point)) % q == 0


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([5, 7]), st.booleans())
def test_linear_form_found_exactly_when_a_line_avoids_the_points(rnd, q, with_line):
    # point sets of 2q to 4q points often leave only a few avoiding lines,
    # which the seeded draws miss and the enumeration must find; a whole line
    # in H meets every other line, so nothing avoids it
    plane = _plane(q)
    coords = set(rnd.sample(plane, rnd.randint(2 * q, 4 * q)))
    if with_line:
        line = rnd.choice(plane)
        coords |= {pt for pt in plane if _meets(line, pt, q)}
    exists = any(not any(_meets(line, pt, q) for pt in coords) for line in plane)
    F = PrimeField(q)
    H = PointSet([ProjectivePoint(F, list(pt)) for pt in sorted(coords)])
    seed = rnd.randint(0, 999)
    try:
        u = pick_generic_linear_form(H, seed=seed)
    except GenericityExhaustedError:
        assert not exists
    else:
        assert exists
        assert _colength_with(u, H) == len(H)
        assert not any(F.is_zero(u.polynomial.evaluate(pt.coords)) for pt in H)
        if u.draws >= verifier.GENERIC_FORM_DRAWS:
            # past the draws, the first free line of the seeded cyclic order
            k = seed % len(plane)
            order = plane[k:] + plane[:k]
            assert u.int_coefficients == next(
                line for line in order if not any(_meets(line, pt, q) for pt in coords))


def test_fermat6_verifies_past_the_built_ins():
    # a scale case: 39 points over Q(zeta_6), rhs = 6 * 6 * 39
    report = verify(fermat(6))
    assert report.method == METHOD_LENGTH
    assert report.verdict == VERDICT_VERIFIED
    assert report.lengths == {"lhs": 1404, "rhs": 1404, "stable_at": 78}
    assert [m["member"] for m in report.memberships] == [True, True]
    assert report.confirmation["lhs"] == 1404


@pytest.mark.parametrize("n, p", [(11, 67), (13, 79)])
def test_linear_form_found_past_the_draws_over_larger_prime_fields(n, p):
    # the 32 draws all meet the fermat-n points; 121 and 169 of the lines
    # over F_p avoid them, and the enumeration reaches one
    H = fermat(n, field=PrimeField(p, root_order=n)).points
    u = pick_generic_linear_form(H, seed=0)
    assert u.draws >= verifier.GENERIC_FORM_DRAWS
    assert not any(H.field.is_zero(u.polynomial.evaluate(pt.coords)) for pt in H)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("make", [
    lambda: fermat(3), lambda: fermat(4), lambda: grid_example(2, 2), lambda: grid_example(2, 3),
], ids=["fermat-3", "fermat-4", "grid-2x2", "grid-2x3"])
def test_accepted_form_cuts_the_points_ideal_to_colength_h(make, seed):
    # u avoids H, so it is a nonzerodivisor on S/I_H and dim S/(uS + I_H) = #H
    cfg = make()
    u = pick_generic_linear_form(cfg.points, seed=seed)
    assert _colength_with(u, cfg.points) == len(cfg.points)


def test_given_form_through_a_point_is_rejected():
    # x - y vanishes at (1:1:1), one of fermat-3's points
    cfg = fermat(3)
    ring = cfg.ring
    u = GenericLinearForm(ring.var("x") - ring.var("y"), (1, -1, 0), 0, 0)
    with pytest.raises(InputError):
        check_condition_by_length(cfg.points, cfg.witnesses, u=u)


def test_line_enumeration_skips_the_families_through_points_of_h():
    # one point on each of the 32 lines drawn from seed 0 over F_1000003, and
    # the common points (1 : 0 : 0), (-1 : 0 : 1) and (0 : 0 : 1) of the
    # families (0, b, 1), (1, b, 1) and (a, 1, 0): 3 million lines meet H
    # before the family (2, b, 1), which is reached at once
    F = PrimeField(1000003)
    pts = {ProjectivePoint(F, coords) for coords in ([1, 0, 0], [-1, 0, 1], [0, 0, 1])}
    for a, b, c in verifier._seeded_draws(0):
        if c:
            pts.add(ProjectivePoint(F, [1, 1, F.div(F.from_int(-a - b), F.from_int(c))]))
        elif b:
            pts.add(ProjectivePoint(F, [1, F.div(F.from_int(-a), F.from_int(b)), 0]))
        else:
            pts.add(ProjectivePoint(F, [0, 1, 0]))
    H = PointSet(sorted(pts, key=str))
    u = pick_generic_linear_form(H, seed=0)
    assert u.int_coefficients[::2] == (2, 1)
    assert u.draws <= verifier.GENERIC_FORM_DRAWS + len(H)


@pytest.mark.parametrize("line", [(0, 1, 0), (1, 0, 0)], ids=["y", "x"])
def test_linear_form_enumeration_includes_the_lines_through_0_0_1(line):
    # H is every point of the plane over F_3 off the line, so that line is the
    # only one avoiding H; seed 89 misses it in all 32 draws
    q = 3
    F = PrimeField(q)
    H = PointSet([ProjectivePoint(F, list(pt)) for pt in _plane(q) if not _meets(line, pt, q)])
    u = pick_generic_linear_form(H, seed=89)
    assert u.draws >= verifier.GENERIC_FORM_DRAWS
    assert u.int_coefficients == line


def test_linear_form_enumeration_keeps_the_seeded_draws():
    # over F_13, seed 53 exhausts its 32 draws on fermat-4 and the enumeration
    # supplies a line; seed 0 finds one among its draws, as before
    cfg = fermat(4, field=PrimeField(13, root_order=4))
    late = pick_generic_linear_form(cfg.points, seed=53)
    assert late.draws >= verifier.GENERIC_FORM_DRAWS
    early = pick_generic_linear_form(cfg.points, seed=0)
    assert early.draws < verifier.GENERIC_FORM_DRAWS


# --- local length -----------------------------------------------------------------


def test_local_length_maximal_ideal():
    S2, a, b = _two_variable_ring()
    val, _ = local_length_at_origin(Ideal([a, b], ring=S2), cap=16)
    assert val == 1


def test_local_length_fat_direction():
    S2, a, b = _two_variable_ring()
    val, _ = local_length_at_origin(Ideal([a, b**2], ring=S2), cap=16)
    assert val == 2


def test_local_length_takes_only_a_plane_pair():
    # the Bezout bound is for one or two generators in two variables
    with pytest.raises(InputError):
        local_length_at_origin(Ideal([x, y, z]), cap=16)
    S2, a, b = _two_variable_ring()
    with pytest.raises(InputError):
        local_length_at_origin(Ideal([a**2, a * b, b**3], ring=S2), cap=16)


def test_local_length_square_corner():
    from symrees.polynomials import PolyRing

    S2 = PolyRing(Q, ("x", "y"))
    a, b = S2.var("x"), S2.var("y")
    J = Ideal([a**2, b**2], ring=S2)
    val, n = local_length_at_origin(J, cap=16)
    assert val == 4
    assert n is not None
    # (x^2 y, y^3) = y (x^2, y^2) leaves the line y = 0 through the origin,
    # so the local length is infinite
    assert local_length_at_origin(Ideal([a**2 * b, b**3], ring=S2), cap=16)[0] == INFINITE


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


def test_infinite_length_needs_no_dimension_test(monkeypatch):
    S2, a, b = _two_variable_ring()
    events = _traced_runs_and_gates(monkeypatch)
    # certified by the first run (N' = 4, certificate at degree 3)
    assert local_length_at_origin(Ideal([a**2, b**2], ring=S2), cap=16, first=4) == (4, 4)
    assert events == [("run", 4)]
    # (x^2) has the bound 2^2 = 4: the run at N' = 3 has colength 1 + 2 + 2
    events.clear()
    assert local_length_at_origin(Ideal([a**2], ring=S2), cap=16) == (INFINITE, None)
    assert events == [("run", 2), ("run", 3)]


def _length_or_cap(J, cap, first=2):
    try:
        return local_length_at_origin(J, cap, first=first)
    except CapExceededError:
        return "cap exceeded"


@settings(max_examples=30)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, PrimeField(7)]), st.booleans())
def test_local_length_does_not_depend_on_the_first_truncation(rnd, field, shared):
    S2 = PolyRing(field, ("x", "y"))
    a, b = S2.var("x"), S2.var("y")
    # the small pairs of the tests above, finite and INFINITE, then a random
    # pair; a shared factor through the origin makes it INFINITE
    pairs = [[a**2, b**2], [a**2], [a**2, a * b], [a * (1 + b)], [a * (a - 1), b]]
    f, g = _random_poly(S2, rnd), _random_poly(S2, rnd)
    if shared:
        h = _random_poly(S2, rnd, max_terms=3, max_deg=2, constant=False)
        f, g = f * h, g * h
    pairs.append([p for p in (f, g) if not p.is_zero()])
    cap = 12
    for gens in pairs:
        if not gens:
            continue
        J = Ideal(gens, ring=S2)
        expected = _length_or_cap(J, cap)
        assert all(_length_or_cap(J, cap, first) == expected for first in range(2, cap + 1))


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
    # (x^2, y^3) certifies at degree 4: the runs at N' = 2 and 3 do not
    with pytest.raises(CapExceededError):
        local_length_at_origin(Ideal([a**2, b**3], ring=S2), cap=3)


@settings(max_examples=40)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, PrimeField(7)]))
def test_local_length_within_the_bezout_bound(rnd, field):
    # a finite length L of (f, g) certifies at some d <= L <= deg f * deg g,
    # so the default runs, which stop at that bound plus one, find it
    S2 = PolyRing(field, ("x", "y"))
    f, g = _random_poly(S2, rnd, constant=False), _random_poly(S2, rnd, constant=False)
    if f.is_zero() or g.is_zero():
        return
    J = Ideal([f, g], ring=S2)
    lhs, stable_at = local_length_at_origin(J)
    if lhs == INFINITE:
        return
    assert stable_at - 1 <= lhs <= f.total_degree() * g.total_degree()
    assert local_length_at_origin(J, cap=64) == (lhs, stable_at)
    # one run far past the bound (degrees <= 3), read without it
    counts = verifier._local_standard_counts([f, g], S2, 24)
    d = counts.index(0)
    assert (sum(counts[:d]), d + 1) == (lhs, stable_at)


def test_proved_bound_may_lie_below_the_least_cap():
    # two linear generators: deg f * deg g = 1, so the runs stop at N' = 2;
    # the floor of 3 holds only for a cap the caller passes
    S2, a, b = _two_variable_ring()
    assert local_length_at_origin(Ideal([a, b], ring=S2)) == (1, 2)
    with pytest.raises(InputError):
        local_length_at_origin(Ideal([a, b], ring=S2), cap=2)


def test_colength_past_the_proved_bound_is_infinite():
    # (x^2, xy) contains the line x = 0: no run certifies, and at N' = 4 the
    # colength 1 + 2 + 1 + 1 passes deg f * deg g = 4
    S2, a, b = _two_variable_ring()
    assert local_length_at_origin(Ideal([a**2, a * b], ring=S2)) == (INFINITE, None)
    # a caller's cap below the bound still runs out first
    with pytest.raises(CapExceededError):
        local_length_at_origin(Ideal([a**2, a * b], ring=S2), cap=3)


@settings(max_examples=40)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, PrimeField(7)]),
       st.sampled_from(["plain", "through the origin", "away from it"]))
def test_infinite_length_matches_the_saturation_oracle(rnd, field, kind):
    S2, a, b = _two_variable_ring(field)
    f, g = _random_poly(S2, rnd), _random_poly(S2, rnd)
    if kind == "through the origin":
        h = _random_poly(S2, rnd, max_terms=3, max_deg=2, constant=False)
        f, g = f * h, g * h
    elif kind == "away from it":
        f, g = f * (1 + b), g * (1 + b)
    gens = [p for p in (f, g) if not p.is_zero()]
    if not gens:
        return
    J = Ideal(gens, ring=S2)
    assert (local_length_at_origin(J)[0] == INFINITE) == meets_positive_dimension(J)


def test_infinite_fermat_pair_runs_without_a_dimension_test(monkeypatch):
    # the fermat-5-f31 pair times x shares the line x = 0: from the first N'
    # of its rhs 700, the third run's colength passes deg f * deg g
    J, rhs = _eliminated_witnesses(fermat(5, field=PrimeField(31, root_order=5)), 0)
    xv = J.ring.var(J.ring.variables[0])
    J = Ideal([p * xv for p in J.generators], ring=J.ring)
    events = _traced_runs_and_gates(monkeypatch)
    assert local_length_at_origin(J, first=_first_truncation(rhs)) == (INFINITE, None)
    assert events == [("run", 76), ("run", 95), ("run", 118)]


# --- homogeneous route ----------------------------------------------------------------


def test_homogeneous_check_three_points():
    cfg = three_points(P(1, 0, 0), P(0, 1, 0), P(0, 0, 1))
    rep = check_homogeneous_condition(cfg.points, cfg.witnesses)
    assert rep.method == METHOD_HOMOGENEOUS
    assert rep.height == 2
    assert rep.product_check == {"d1": 3, "d2": 2, "r1": 2, "r2": 1, "e": 3, "holds": True}
    assert rep.verdict == VERDICT_VERIFIED


def test_homogeneous_check_rejects_inhomogeneous():
    cfg = grid_example(2, 2)
    with pytest.raises(NotHomogeneousError):
        check_homogeneous_condition(cfg.points, cfg.witnesses)


def test_homogeneous_check_membership_precondition(monkeypatch):
    cfg = three_points(P(1, 0, 0), P(0, 1, 0), P(0, 0, 1))
    bad = WitnessPair(cfg.witnesses.xi1, cfg.witnesses.r1, x, cfg.witnesses.r2)

    def unreachable(self):
        raise AssertionError("a height was computed for a non-member pair")

    monkeypatch.setattr(Ideal, "height", unreachable)
    rep = check_homogeneous_condition(cfg.points, bad)
    assert rep.method == METHOD_HOMOGENEOUS
    assert rep.verdict == VERDICT_NOT_ESTABLISHED
    assert [m["member"] for m in rep.memberships] == [True, False]
    assert rep.notes == [NONMEMBER_NOTE]
    assert rep.height is None and rep.product_check is None
    assert set(rep.timings_ms) == {"memberships"}


def test_degenerate_pair_fails_on_height():
    cfg = fermat(3)
    w = cfg.witnesses
    degenerate = WitnessPair(w.xi1, w.r1, w.xi1, w.r1)
    rep = check_homogeneous_condition(cfg.points, degenerate)
    assert rep.height == 1
    assert rep.verdict == VERDICT_NOT_ESTABLISHED


# --- length route ------------------------------------------------------------------------


def test_length_check_grid22():
    cfg = grid_example(2, 2)
    rep = check_condition_by_length(cfg.points, cfg.witnesses)
    assert rep.method == METHOD_LENGTH
    assert rep.lengths["lhs"] == rep.lengths["rhs"] == 48
    assert rep.verdict == VERDICT_VERIFIED


def test_length_check_membership_precondition(monkeypatch):
    cfg = grid_example(2, 2)
    bad = WitnessPair(x, 4, y, 2)

    def unreachable(*args, **kwargs):
        raise AssertionError("a linear form was drawn for a non-member pair")

    monkeypatch.setattr(verifier, "pick_generic_linear_form", unreachable)
    rep = check_condition_by_length(cfg.points, bad)
    assert rep.method == METHOD_LENGTH
    assert rep.verdict == VERDICT_NOT_ESTABLISHED
    assert [m["member"] for m in rep.memberships] == [False, False]
    assert rep.notes == [NONMEMBER_NOTE]
    assert rep.lengths is None and rep.u is None
    assert set(rep.timings_ms) == {"memberships"}


def test_length_check_agrees_with_homogeneous_route():
    # cross-validation on a homogeneous pair: both routes must verify
    cfg = three_points(P(1, 0, 0), P(0, 1, 0), P(0, 0, 1))
    rep_h = check_homogeneous_condition(cfg.points, cfg.witnesses)
    rep_l = check_condition_by_length(cfg.points, cfg.witnesses)
    assert rep_h.verdict == rep_l.verdict == VERDICT_VERIFIED
    assert rep_l.lengths["lhs"] == rep_l.lengths["rhs"] == 2 * 1 * 3


def test_routes_agree_on_fermat3():
    cfg = fermat(3)
    rep_h = check_homogeneous_condition(cfg.points, cfg.witnesses)
    rep_l = check_condition_by_length(cfg.points, cfg.witnesses)
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
    away = saturation(J, a).intersect(saturation(J, b))
    f = next(p for p in away.groebner() if not ring.field.is_zero(p.constant_term()))
    return saturation(J, f).vector_space_dimension()


def test_local_length_against_component_split_oracle():
    from symrees.verifier import _eliminate_along

    cases = [
        (grid_example(2, 2), 48),
        (fermat(4, field=PrimeField(13, root_order=4)), 304),
    ]
    for cfg, expected in cases:
        u = pick_generic_linear_form(cfg.points, seed=0)
        w = cfg.witnesses
        a, b = _eliminate_along(u, [w.xi1, w.xi2])
        J = Ideal([a, b], ring=a.ring)
        assert _local_length_by_component_split(J) == expected
        val, _ = local_length_at_origin(J, cap=256, first=_first_truncation(expected))
        assert val == expected


def test_truncated_colengths_are_monotone_and_stay_flat():
    from symrees.verifier import _eliminate_along

    cfg = grid_example(2, 2)
    u = pick_generic_linear_form(cfg.points, seed=0)
    w = cfg.witnesses
    x1s, x2s = _eliminate_along(u, [w.xi1, w.xi2])
    vals = [truncated_colength([x1s, x2s], x1s.ring, n) for n in range(2, 22)]
    assert vals == sorted(vals)
    # once two consecutive values agree the sequence stays flat for good
    stable = next(i for i in range(1, len(vals)) if vals[i] == vals[i - 1])
    assert len(set(vals[stable - 1:])) == 1
    assert vals[-1] == 48


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(*[st.integers(0, 9)] * n), max_size=8),
    st.integers(0, 12))))
def test_staircase_count_matches_scan(case):
    nvars, leads, d = case
    assert standard_count(leads, nvars, d) == standard_count_by_scan(leads, nvars, d)


def _local_colengths(gens, ring, n):
    """Colengths of J + m^N for N = 1..n read off one local-order run."""
    from symrees.verifier import _local_standard_counts

    return list(accumulate(_local_standard_counts(gens, ring, n)))


def _grevlex_colengths(gens, ring, n):
    return [truncated_colength(gens, ring, m) for m in range(1, n + 1)]


def test_local_order_colengths_match_grevlex_oracle():
    from symrees.verifier import _eliminate_along

    for cfg in (grid_example(2, 2), fermat(4, field=PrimeField(13, root_order=4))):
        u = pick_generic_linear_form(cfg.points, seed=0)
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


def _random_scalar(field, rnd):
    c = field.from_int(rnd.randint(-4, 4))
    if isinstance(field, CyclotomicField):
        c = field.add(c, field.mul(field.from_int(rnd.randint(-4, 4)), field.generator()))
    return c


def _random_poly(ring, rnd, max_terms=4, max_deg=3, constant=True):
    terms = {}
    for _ in range(rnd.randint(1, max_terms)):
        d = rnd.randint(0 if constant else 1, max_deg)
        i = rnd.randint(0, d)
        terms[(i, d - i)] = _random_scalar(ring.field, rnd)
    return from_dict(ring, terms)


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
    val, stable_at = local_length_at_origin(Ideal([f * h, g * h], ring=S2))
    assert val == INFINITE and stable_at is None


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, CyclotomicField(3), PrimeField(7)]),
       st.integers(1, 10), st.booleans())
def test_counts_with_the_power_of_m_left_implicit(rnd, field, n, dropped):
    # the route runs on J alone with every term of degree >= N' dropped; the
    # old route ran on J + m^N' with every term of degree > N' dropped.  With
    # ``dropped`` every term of J has degree >= N', so the run gets no term
    # and J + m^N' = m^N'.
    S2, a, b = _two_variable_ring(field)
    f, g = _random_poly(S2, rnd), _random_poly(S2, rnd)
    if dropped:
        i = rnd.randint(0, n)
        f, g = f * a**i * b**(n - i), g * b**rnd.randint(n, n + 2)
    gens = [p for p in (f, g) if not p.is_zero()]
    if not gens:
        return
    old = lead_monomial_basis(with_truncation_monomials(gens, S2, n), order=DS,
                              truncate_degree=n)
    kept = []

    def spied(*args, **kw):
        leads = lead_monomial_basis(*args, **kw)
        kept.extend(leads)
        return leads

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verifier, "lead_monomial_basis", spied)
        counts = verifier._local_standard_counts(gens, S2, n)
    assert counts == [standard_count_by_scan(old, 2, d) for d in range(n)]
    # the run computes in S/m^N': no lead at or above N'
    assert all(sum(lm) < n for lm in kept)
    if dropped:
        assert counts == [d + 1 for d in range(n)]


def test_local_order_needs_truncation():
    from symrees.groebner import lead_monomial_basis, normal_form
    from symrees.polynomials import DS

    with pytest.raises(InputError):
        lead_monomial_basis([x - x**2, y], order=DS)
    # untruncated division would rewrite x as x^2, x^3, ... for ever
    with pytest.raises(InputError):
        normal_form(x, [x - x**2], DS)
    assert lead_monomial_basis([x - x**2, y], order=DS, truncate_degree=4) == ((0, 1, 0), (1, 0, 0))


# --- elimination along u --------------------------------------------------------------


def _integer_coordinates(poly):
    return all(type(v) is int for c in poly.terms.values()
               for v in (c if isinstance(c, tuple) else (c,)))


@pytest.mark.parametrize("make", [
    lambda: fermat(4), lambda: fermat(5), lambda: grid_example(2, 2), lambda: grid_example(2, 3),
], ids=["fermat-4", "fermat-5", "grid-2x2", "grid-2x3"])
def test_eliminated_witnesses_keep_integer_coordinates(make):
    from symrees.verifier import _eliminate_along

    cfg = make()
    u = pick_generic_linear_form(cfg.points, seed=0)
    w = cfg.witnesses
    assert all(_integer_coordinates(p) for p in _eliminate_along(u, [w.xi1, w.xi2]))


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([Q, CyclotomicField(3), CyclotomicField(5), PrimeField(7), PrimeField(2)]))
def test_elimination_along_u_matches_the_quotient_formula(rnd, field):
    from symrees.verifier import _eliminate_along

    coeffs = tuple(rnd.randint(-9, 9) for _ in range(3))
    if all(field.is_zero(field.from_int(c)) for c in coeffs):
        return
    ring = base_ring(field)
    polys = []
    for _ in range(2):
        terms = {tuple(rnd.randint(0, 3) for _ in range(3)): _random_scalar(field, rnd)
                 for _ in range(rnd.randint(0, 4))}
        polys.append(from_dict(ring, terms))
    u = GenericLinearForm(None, coeffs, 0, 0)
    images = _eliminate_along(u, polys)
    if field.characteristic == 0:
        assert all(_integer_coordinates(p) for p in images)
    # each image is a^deg(xi) times the quotient image of xi at integer content one
    content_one = [Polynomial(ring, dict(field.rescale_terms(list(p.terms.items()))))
                   for p in polys]
    expected = eliminate_by_quotient(coeffs, content_one)
    pivot = next(i for i, name in enumerate(ring.variables)
                 if name not in expected[0].ring.variables)
    a = field.from_int(coeffs[pivot])
    for p, got, want in zip(polys, images, expected):
        assert got == (want.scale(field.pow(a, p.total_degree())) if p.terms else want)


def test_elimination_pivot_is_nonzero_in_the_field():
    # over F_7 the largest coefficient of -x + 2y + 7z vanishes, so y goes;
    # grid-2x2 over F_7 draws that form at seed 5
    from symrees.verifier import _eliminate_along

    F7 = PrimeField(7)
    ring = base_ring(F7)
    u = GenericLinearForm(None, (-1, 2, 7), 0, 0)
    (image,) = _eliminate_along(u, [ring.var("x") + ring.var("y") + ring.var("z")])
    assert image.ring.variables == ("x", "z")
    cfg = grid_example(2, 2, field=F7)
    assert pick_generic_linear_form(cfg.points, seed=5).int_coefficients == (-1, 2, 7)
    assert verify(cfg, seed=5).verdict == VERDICT_VERIFIED


# --- the local length modulo a degree-one prime --------------------------------------


def _eliminated_witnesses(cfg, seed):
    """The two-variable ideal J of the length route and its rhs r1*r2*#H."""
    from symrees.verifier import _eliminate_along

    u = pick_generic_linear_form(cfg.points, seed=seed)
    w = cfg.witnesses
    a, b = _eliminate_along(u, [w.xi1, w.xi2])
    return Ideal([a, b], ring=a.ring), w.r1 * w.r2 * len(cfg.points)


@pytest.mark.parametrize("make, seed", [
    (lambda: fermat(4), 0),
    (lambda: fermat(4), 1),
    (lambda: grid_example(2, 2), 0),
    (lambda: grid_example(2, 3), 0),
], ids=["fermat-4-seed0", "fermat-4-seed1", "grid-2x2", "grid-2x3"])
def test_modular_local_length_matches_exact_route(make, seed):
    J, rhs = _eliminated_witnesses(make(), seed)
    first = _first_truncation(rhs)
    assert _local_length_mod_prime(J, None, rhs, first) == local_length_at_origin(J, first=first)


@settings(max_examples=40)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, CyclotomicField(3)]))
def test_modular_local_length_accepts_only_the_exact_length(rnd, field):
    # both curves pass through the origin, so a finite length is positive
    S2 = PolyRing(field, ("x", "y"))
    pair = (_random_poly(S2, rnd, constant=False), _random_poly(S2, rnd, constant=False))
    gens = [p for p in pair if not p.is_zero()]
    if not gens:
        return
    J = Ideal(gens, ring=S2)
    exact, _ = local_length_at_origin(J, cap=24)
    if exact == INFINITE:
        return
    # InvariantError here would mean a length mod p below the exact one
    found = _local_length_mod_prime(J, 24, exact, _first_truncation(exact))
    if found is not None:
        assert found[0] == exact


def _two_variable_ring(field=Q):
    S2 = PolyRing(field, ("x", "y"))
    return S2, S2.var("x"), S2.var("y")


def _route_with_pair(monkeypatch, points, witnesses, f, g):
    """check_condition_by_length with (f, g) in place of the eliminated witnesses."""
    monkeypatch.setattr(verifier, "_eliminate_along", lambda u, polys: [f, g])
    return check_condition_by_length(PointSet(points), witnesses)


def test_modular_step_declines_when_p_divides_a_coefficient(monkeypatch):
    p, _ = degree_one_prime(1)
    S2, a, b = _two_variable_ring()
    f, g = a * p + b**2, a**2 + b**3
    # over Q, x = -y^2/p locally and g becomes y^3 times a unit: length 3;
    # mod p the pair is (y^2, x^2 + y^3), of length 4
    assert local_length_at_origin(Ideal([f, g], ring=S2), cap=16) == (3, 4)
    T, c, d = _two_variable_ring(PrimeField(p))
    assert local_length_at_origin(Ideal([d**2, c**2 + d**3], ring=T), cap=16)[0] == 4
    # L_p = 4 > 3 proves nothing, but it bounds the exact run
    assert _local_length_mod_prime(Ideal([f, g], ring=S2), 16, 3, first=3)[0] == 4
    # the route falls back to the exact run: three points, rhs = 1 * 1 * 3
    pts = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    rep = _route_with_pair(monkeypatch, pts, WitnessPair(x * y, 1, y * z, 1), f, g)
    assert rep.lengths == {"lhs": 3, "rhs": 3, "stable_at": 4}
    assert rep.verdict == VERDICT_VERIFIED


def test_modular_stable_at_is_the_degree_of_the_proving_certificate(monkeypatch):
    p, _ = degree_one_prime(1)
    S2, a, b = _two_variable_ring()
    f, g = a**2 + b * p, b**2
    # over Q, y = -x^2/p locally: (x^2 + p*y, x^4), standard monomials 1..x^3,
    # whose Nakayama certificate is at degree 4; mod p it is (x^2, y^2), same
    # length, certified at degree 3
    assert local_length_at_origin(Ideal([f, g], ring=S2), cap=16, first=4) == (4, 5)
    assert _local_length_mod_prime(Ideal([f, g], ring=S2), 16, 4, first=4) == (4, 4)
    # the report carries the certificate that proved the length: two points
    # with z^2 in I^(2) and z in I, rhs = 2 * 1 * 2
    pts = [P(1, 0, 0), P(0, 1, 0)]
    rep = _route_with_pair(monkeypatch, pts, WitnessPair(z**2, 2, z, 1), f, g)
    assert rep.lengths == {"lhs": 4, "rhs": 4, "stable_at": 4}


def test_modular_step_declines_on_a_generator_in_the_prime():
    F = CyclotomicField(4)
    p, omega = degree_one_prime(4)
    S2, a, b = _two_variable_ring(F)
    in_prime = F.sub(F.generator(), F.from_int(omega))
    # (zeta - omega)*x vanishes mod P, which leaves (y) and an infinite L_p
    J = Ideal([a * S2.constant(in_prime), b], ring=S2)
    assert local_length_at_origin(J, cap=16, first=2)[0] == 1
    assert _local_length_mod_prime(J, 16, 1, first=2) is None


def test_char0_fallback_runs_no_infinite_gate(monkeypatch):
    # L_p = 320 > rhs = 304 proves nothing, and the exact char-0 route finds
    # L = 320 <= L_p; neither characteristic makes a dimension test
    cfg = fermat(4)
    w = cfg.witnesses
    perturbed = WitnessPair(w.xi1 * cfg.ring.var("x"), w.r1, w.xi2, w.r2)
    u = pick_generic_linear_form(cfg.points, seed=0)
    characteristics = []
    krull = Ideal.krull_dimension

    def counted(self):
        characteristics.append(self.ring.field.characteristic)
        return krull(self)

    monkeypatch.setattr(Ideal, "krull_dimension", counted)
    rep = check_condition_by_length(cfg.points, perturbed, u=u)
    assert rep.lengths == {"lhs": 320, "rhs": 304, "stable_at": 37}
    assert rep.verdict == VERDICT_NOT_ESTABLISHED
    assert characteristics == []


def test_char0_length_above_the_modular_length_is_a_bug(monkeypatch):
    # (x^3, y^3) has length 9 in every characteristic; a length mod p of 5
    # would bound it from above, so the exact route's 9 is reported as a bug
    S2, a, b = _two_variable_ring()
    monkeypatch.setattr(verifier, "_local_length_mod_prime", lambda J, cap, rhs, first: (5, 4))
    pts = [P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)]
    with pytest.raises(InvariantError):
        _route_with_pair(monkeypatch, pts, WitnessPair(x * y, 1, y * z, 1), a**3, b**3)


def test_char0_fallback_starts_at_the_modular_certificate_degree(monkeypatch):
    # the F_p run certifies L_p = 320 at stable_at 37; the exact route makes one
    # char-0 run at N' = 37 in place of the schedule 26, 32, 40
    cfg = fermat(4)
    w = cfg.witnesses
    perturbed = WitnessPair(w.xi1 * cfg.ring.var("x"), w.r1, w.xi2, w.r2)
    u = pick_generic_linear_form(cfg.points, seed=0)
    runs = []
    counts = verifier._local_standard_counts

    def counted(gens, ring, n):
        runs.append((ring.field.characteristic, n))
        return counts(gens, ring, n)

    monkeypatch.setattr(verifier, "_local_standard_counts", counted)
    rep = check_condition_by_length(cfg.points, perturbed, u=u)
    assert rep.lengths == {"lhs": 320, "rhs": 304, "stable_at": 37}
    assert [n for p, n in runs if p == 0] == [37]


def _traced_runs_and_gates(monkeypatch):
    """Log each DS run as ("run", N'), each dimension test of a two-variable
    J as "gate" (the length route makes none), and each linear form drawn
    as ("seed", s).  N' is read where the length route asks for the counts
    below it, not from the run's truncate_degree."""
    events = []
    counts = verifier._local_standard_counts
    krull = Ideal.krull_dimension
    pick = verifier.pick_generic_linear_form

    def run(gens, ring, n):
        events.append(("run", n))
        return counts(gens, ring, n)

    def gate(self):
        if self.ring.nvars == 2:
            events.append("gate")
        return krull(self)

    def seed(H, s):
        events.append(("seed", s))
        return pick(H, s)

    monkeypatch.setattr(verifier, "_local_standard_counts", run)
    monkeypatch.setattr(Ideal, "krull_dimension", gate)
    monkeypatch.setattr(verifier, "pick_generic_linear_form", seed)
    return events


@pytest.mark.parametrize("make, first_n", [
    (lambda: fermat(4, field=PrimeField(13, root_order=4)), 52),
    (lambda: fermat(5, field=PrimeField(31, root_order=5)), 76),
    (lambda: fermat(4), 52),
], ids=["fermat-4-f13", "fermat-5-f31", "fermat-4"])
def test_confirmation_is_one_run_at_the_proved_stable_at(monkeypatch, make, first_n):
    cfg = make()
    events = _traced_runs_and_gates(monkeypatch)
    report = verify(cfg, seed=0)
    assert report.verdict == VERDICT_VERIFIED
    split = events.index(("seed", 1))
    assert events[0] == ("seed", 0)
    first, confirmation = events[1:split], events[split + 1:]
    # the first seed is one run at the N' picked from rhs, past its certificate
    # degree; over Q(zeta_4) this is the F_p run of the modular step
    assert first_n == _first_truncation(report.lengths["rhs"]) > report.lengths["stable_at"]
    assert first == [("run", first_n)]
    assert confirmation == [("run", report.lengths["stable_at"])]


def test_first_truncation_below_the_certificate_degree_changes_nothing(monkeypatch):
    cfg = fermat(4, field=PrimeField(13, root_order=4))
    u = pick_generic_linear_form(cfg.points, seed=1)
    rhs = 304
    assert _length(cfg.witnesses, u, rhs, None, _first_truncation(rhs)) == (rhs, 36)
    events = _traced_runs_and_gates(monkeypatch)
    assert _length(cfg.witnesses, u, rhs, None, 20) == (rhs, 36)
    # the failed run at 20 makes no dimension test, and N' grows by a quarter
    assert events == [("run", 20), ("run", 25), ("run", 31), ("run", 38)]


@pytest.mark.parametrize("make", [
    lambda: grid_example(2, 2),
    lambda: fermat(4, field=PrimeField(13, root_order=4)),
], ids=["grid-2x2", "fermat-4-f13"])
def test_length_route_verify_computes_the_memberships_once(monkeypatch, make):
    calls = []
    memberships = verifier.membership_results

    def counted(*args):
        calls.append(args)
        return memberships(*args)

    monkeypatch.setattr(verifier, "membership_results", counted)
    report = verify(make(), seed=0)
    assert report.method == METHOD_LENGTH
    assert report.verdict == report.confirmation["verdict"] == VERDICT_VERIFIED
    assert len(calls) == 1


def test_modular_length_below_rhs_is_a_bug():
    S2, a, b = _two_variable_ring()
    # the length of (x^2, y^2) is 4 in every characteristic; Huneke's bound
    # says the char-0 length is at least rhs, so 4 < 5 cannot happen
    with pytest.raises(InvariantError):
        _local_length_mod_prime(Ideal([a**2, b**2], ring=S2), 16, 5, first=4)


def test_length_check_same_witness_twice_is_infinite():
    cfg = grid_example(2, 2)
    w = cfg.witnesses
    degenerate = WitnessPair(w.xi1, w.r1, w.xi1, w.r1)
    rep = check_condition_by_length(cfg.points, degenerate)
    assert rep.lengths["lhs"] == INFINITE
    assert rep.verdict == VERDICT_NOT_ESTABLISHED


def test_length_check_perturbed_witness_strictly_exceeds():
    cfg = grid_example(2, 2)
    w = cfg.witnesses
    perturbed = WitnessPair(w.xi1 * x, w.r1, w.xi2, w.r2)
    rep = check_condition_by_length(cfg.points, perturbed)
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
    for key in ("memberships", "linear_form", "local_length", "confirmation"):
        assert isinstance(timings[key], float)
    # the points ideal is not computed, so it has no stage
    assert "points_ideal" not in timings
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


def _nonmember_configuration(field, method):
    """The triangle with xi2 = x (product route) or grid-2x2 with xi1 =
    x*xi1 + y (length route): one witness outside its symbolic power."""
    if method == METHOD_HOMOGENEOUS:
        cfg = three_points(P(1, 0, 0, field=field), P(0, 1, 0, field=field),
                           P(0, 0, 1, field=field))
    else:
        cfg = grid_example(2, 2, field=field)
    w, ring = cfg.witnesses, cfg.ring
    gx, gy = ring.var("x"), ring.var("y")
    if method == METHOD_HOMOGENEOUS:
        cfg.witnesses = WitnessPair(w.xi1, w.r1, gx, w.r2)
    else:
        cfg.witnesses = WitnessPair(gx * w.xi1 + gy, w.r1, w.xi2, w.r2)
    return cfg


@pytest.mark.parametrize("method, members",
                         [(METHOD_HOMOGENEOUS, [True, False]), (METHOD_LENGTH, [False, True])])
@pytest.mark.parametrize("field", [Q, PrimeField(7)], ids=repr)
def test_verify_pins_the_report_of_a_nonmember_pair(field, method, members):
    cfg = _nonmember_configuration(field, method)
    rep = verify(cfg)
    assert rep.verdict == VERDICT_NOT_ESTABLISHED
    assert rep.method == method
    assert rep.memberships == [
        {"witness": 1, "r": cfg.witnesses.r1, "member": members[0]},
        {"witness": 2, "r": cfg.witnesses.r2, "member": members[1]},
    ]
    assert rep.notes == [NONMEMBER_NOTE]
    assert set(rep.timings_ms) == {"memberships", "total"}
    assert rep.u is None and rep.confirmation is None
    assert rep.lengths is None and rep.height is None and rep.product_check is None
    assert rep.config == cfg.provenance and rep.seed == 0
    assert set(rep.to_json_dict()) == {
        "schema", "config", "field", "memberships", "method", "height", "product_check",
        "lengths", "u", "seed", "verdict", "timings_ms", "notes", "confirmation"}


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
    u = pick_generic_linear_form(cfg.points, seed=3)
    rep = check_condition_by_length(cfg.points, cfg.witnesses, u=u)
    assert rep.verdict == VERDICT_VERIFIED
    assert rep.seed == 3
