from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import eliminate_by_quotient, standard_count_by_scan, truncated_colength
from symrees.configs import WitnessPair, fermat, grid_example, three_points
from symrees.errors import (
    CapExceededError,
    GenericityExhaustedError,
    InputError,
    InvariantError,
    MembershipFailedError,
    NotHomogeneousError,
)
from symrees import verifier
from symrees.fields import CyclotomicField, PrimeField, RationalField, degree_one_prime
from symrees.groebner import reduced_groebner_basis, standard_count
from symrees.ideals import INFINITE, Ideal
from symrees.points import PointSet, ProjectivePoint, base_ring, points_ideal
from symrees.polynomials import PolyRing, Polynomial
from symrees.verifier import (
    METHOD_HOMOGENEOUS,
    METHOD_LENGTH,
    VERDICT_NOT_ESTABLISHED,
    VERDICT_VERIFIED,
    GenericLinearForm,
    _first_truncation,
    _local_length_mod_prime,
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
    try:
        u = pick_generic_linear_form(H, seed=rnd.randint(0, 999))
    except GenericityExhaustedError:
        assert not exists
    else:
        assert exists
        assert _colength_with(u, H) == len(H)
        assert not any(F.is_zero(u.polynomial.evaluate(pt.coords)) for pt in H)


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


def test_infinite_gate_runs_only_after_a_run_without_certificate(monkeypatch):
    from symrees.polynomials import PolyRing

    S2 = PolyRing(Q, ("x", "y"))
    a, b = S2.var("x"), S2.var("y")
    runs, gates = [], []
    lead = verifier.lead_monomial_basis
    krull = Ideal.krull_dimension
    monkeypatch.setattr(verifier, "lead_monomial_basis",
                        lambda *args, **kw: runs.append(kw["truncate_degree"]) or lead(*args, **kw))
    monkeypatch.setattr(Ideal, "krull_dimension", lambda self: gates.append(1) or krull(self))
    # certified by the first run (N' = 4, certificate at degree 3): no gate
    assert local_length_at_origin(Ideal([a**2, b**2], ring=S2), cap=16, first=4) == (4, 4)
    assert (runs, gates) == ([4], [])
    # an INFINITE J pays one run at the first N', then the gate decides
    runs.clear()
    assert local_length_at_origin(Ideal([a**2], ring=S2), cap=16) == (INFINITE, None)
    assert runs == [2] and gates == [1]


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
    # the small pairs of the gate tests, finite and INFINITE, then a random
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
    rep = check_homogeneous_condition(cfg.points, cfg.witnesses)
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


def test_length_check_membership_precondition():
    cfg = grid_example(2, 2)
    bad = WitnessPair(x, 4, y, 2)
    with pytest.raises(MembershipFailedError):
        check_condition_by_length(cfg.points, bad)


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


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, CyclotomicField(3), PrimeField(7)]))
def test_elimination_along_u_matches_the_quotient_formula(rnd, field):
    from symrees.verifier import _eliminate_along

    coeffs = tuple(rnd.randint(-9, 9) for _ in range(3))
    if all(field.is_zero(field.from_int(c)) for c in coeffs):
        return
    ring = base_ring(field)
    polys = []
    for _ in range(2):
        terms = {tuple(rnd.randint(0, 3) for _ in range(3)): _random_scalar(field, rnd)
                 for _ in range(rnd.randint(1, 4))}
        polys.append(Polynomial.from_dict(ring, terms))
    u = GenericLinearForm(None, coeffs, 0, 0)
    images = _eliminate_along(u, polys)
    expected = eliminate_by_quotient(coeffs, polys)
    if field.characteristic == 0:
        assert all(_integer_coordinates(p) for p in images)
    # each image spans the same ideal as its quotient image
    for got, want in zip(images, expected):
        assert got.is_zero() == want.is_zero()
        if not got.is_zero():
            assert reduced_groebner_basis([got]).polynomials == reduced_groebner_basis([want]).polynomials


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
    cap = default_cap(rhs)
    first = _first_truncation(rhs)
    assert _local_length_mod_prime(J, cap, rhs, first) == local_length_at_origin(J, cap, first)


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
    # L_p = 320 > rhs = 304 proves the char-0 length finite (L <= L_p), so the
    # exact route runs without the INFINITE gate, with N' at most L_p + 1
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
    assert 0 not in characteristics


def test_char0_fallback_starts_at_the_modular_certificate_degree(monkeypatch):
    # the F_p run certifies L_p = 320 at stable_at 37; the exact route makes one
    # char-0 run at N' = 37 in place of the schedule 26, 32, 40
    cfg = fermat(4)
    w = cfg.witnesses
    perturbed = WitnessPair(w.xi1 * cfg.ring.var("x"), w.r1, w.xi2, w.r2)
    u = pick_generic_linear_form(cfg.points, seed=0)
    runs = []
    leads = verifier.lead_monomial_basis

    def counted(gens, order, truncate_degree):
        runs.append((gens[0].ring.field.characteristic, truncate_degree))
        return leads(gens, order=order, truncate_degree=truncate_degree)

    monkeypatch.setattr(verifier, "lead_monomial_basis", counted)
    rep = check_condition_by_length(cfg.points, perturbed, u=u)
    assert rep.lengths == {"lhs": 320, "rhs": 304, "stable_at": 37}
    assert [n for p, n in runs if p == 0] == [37]


def _traced_runs_and_gates(monkeypatch):
    """Log each DS run as ("run", N'), each dimension test of a two-variable
    J (the INFINITE gate) as "gate", and each length check as ("seed", s)."""
    events = []
    leads = verifier.lead_monomial_basis
    krull = Ideal.krull_dimension
    by_length = verifier.check_condition_by_length

    def run(*args, **kw):
        events.append(("run", kw["truncate_degree"]))
        return leads(*args, **kw)

    def gate(self):
        if self.ring.nvars == 2:
            events.append("gate")
        return krull(self)

    def seed(*args, **kw):
        events.append(("seed", kw["seed"]))
        return by_length(*args, **kw)

    monkeypatch.setattr(verifier, "lead_monomial_basis", run)
    monkeypatch.setattr(Ideal, "krull_dimension", gate)
    monkeypatch.setattr(verifier, "check_condition_by_length", seed)
    return events


@pytest.mark.parametrize("make, schedule", [
    (lambda: fermat(4, field=PrimeField(13, root_order=4)), [26, 32, 40]),
    (lambda: fermat(5, field=PrimeField(31, root_order=5)), [38, 47, 58]),
    (lambda: fermat(4), [26, 32, 40]),
], ids=["fermat-4-f13", "fermat-5-f31", "fermat-4"])
def test_confirmation_is_one_run_at_the_proved_stable_at(monkeypatch, make, schedule):
    cfg = make()
    events = _traced_runs_and_gates(monkeypatch)
    report = verify(cfg, seed=0)
    assert report.verdict == VERDICT_VERIFIED
    split = events.index(("seed", 1))
    assert events[0] == ("seed", 0)
    first, confirmation = events[1:split], events[split + 1:]
    # the first seed keeps the schedule picked from rhs and its gate; over Q(zeta_4)
    # these are the F_p runs of the modular step
    assert first == [("run", schedule[0]), "gate"] + [("run", n) for n in schedule[1:]]
    assert confirmation == [("run", report.lengths["stable_at"])]


def test_first_truncation_below_the_certificate_degree_changes_nothing(monkeypatch):
    cfg = fermat(4, field=PrimeField(13, root_order=4))
    u = pick_generic_linear_form(cfg.points, seed=1)

    def report(first):
        rep = check_condition_by_length(cfg.points, cfg.witnesses, u=u, first=first)
        return {k: v for k, v in rep.to_json_dict().items() if k != "timings_ms"}

    expected = report(None)
    assert expected["lengths"]["stable_at"] == 36
    events = _traced_runs_and_gates(monkeypatch)
    assert report(20) == expected
    # the failed run at 20 pays the gate, then N' grows by a quarter
    assert events == [("run", 20), "gate", ("run", 25), ("run", 31), ("run", 38)]


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
