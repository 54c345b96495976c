from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import from_dict, in_point_power_by_shift
from symrees import groebner, ideals
from symrees.configs import fermat
from symrees.errors import BudgetExceededError, DuplicatePointsError, InputError
from symrees.fields import CyclotomicField, PrimeField, RationalField
from symrees.groebner import normal_form, reduced_groebner_basis
from symrees.ideals import Ideal
from symrees.points import (
    PointPowerCache,
    PointSet,
    ProjectivePoint,
    base_ring,
    defining_ideal,
    points_ideal,
    symbolic_power_ideal,
    symbolic_power_membership,
)
from symrees.polynomials import BlockOrder, Polynomial

Q = RationalField()
R = base_ring(Q)
x, y, z = R.var("x"), R.var("y"), R.var("z")


def P(*coords, field=Q):
    return ProjectivePoint(field, list(coords))


def test_normalization_last_nonzero_is_one():
    from fractions import Fraction

    assert P(2, 4, 2).coords == (1, 2, 1)
    assert P(3, 6, 0).coords == (Fraction(1, 2), 1, 0)
    assert P(5, 0, 0).coords == (1, 0, 0)
    assert P(2, 4, 2) == P(1, 2, 1)


def test_zero_point_rejected():
    with pytest.raises(InputError):
        P(0, 0, 0)


def test_defining_ideal_examples():
    assert defining_ideal(P(0, 0, 1), R) == Ideal([x, y])
    assert defining_ideal(P(1, 0, 0), R) == Ideal([y, z])
    assert defining_ideal(P(0, 1, 0), R) == Ideal([z, x])
    gb = defining_ideal(P(1, 1, 1), R).groebner()
    assert set(str(g) for g in gb) == {"y - z", "x - z"}


def test_defining_ideal_vanishes_at_its_point():
    for pt in (P(1, 2, 3), P(1, 1, 0), P(0, 5, 1)):
        for g in defining_ideal(pt, R).generators:
            assert Q.is_zero(g.evaluate(pt.coords))
        gb = defining_ideal(pt, R).groebner()
        assert len(gb) == 2
        assert all(p.total_degree() == 1 for p in gb)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Q, CyclotomicField(3), PrimeField(7)]), st.integers(0, 2),
       st.lists(st.integers(-3, 3), min_size=3, max_size=3),
       st.lists(st.integers(-2, 2), min_size=3, max_size=3), st.integers(1, 3))
def test_defining_ideal_is_the_reduced_basis_of_the_minors(field, chart, ints, irr, scale):
    # zero past ``chart`` and nonzero at it, any value (zero too) before it;
    # over Q(zeta_3) the values carry multiples of zeta.  The minors take
    # the unnormalized coordinates, times ``scale``.
    ring = base_ring(field)
    xs = [ring.var(v) for v in ("x", "y", "z")]
    coords = [field.from_int(scale * a) for a in ints]
    if isinstance(field, CyclotomicField):
        coords = [field.add(c, field.mul(field.from_int(b), field.generator()))
                  for c, b in zip(coords, irr)]
    coords[chart + 1:] = [field.zero] * (2 - chart)
    if field.is_zero(coords[chart]):
        coords[chart] = field.one
    pt = ProjectivePoint(field, coords)
    minors = [xs[i].scale(coords[j]) - xs[j].scale(coords[i]) for i, j in ((0, 1), (0, 2), (1, 2))]
    expected = reduced_groebner_basis([m for m in minors if not m.is_zero()])
    assert set(defining_ideal(pt, ring).generators) == set(expected.polynomials)


@pytest.mark.parametrize("n, r", [(3, 3), (4, 2), (5, 1)])
def test_symbolic_power_ideal_runs_one_basis_per_intersection(monkeypatch, n, r):
    # the point ideals are written down, not computed, and no operand is
    # probed for the unit ideal: every Buchberger run is an elimination
    # whose basis is read, 11 + 18 + 27 over these three
    cfg = fermat(n)
    completed = groebner._completed_basis
    runs = []

    def counted(*args):
        runs.append(args[1])
        return completed(*args)

    monkeypatch.setattr(groebner, "_completed_basis", counted)
    monkeypatch.setattr(ideals, "_completed_basis", counted)
    symbolic_power_ideal(cfg.points, r, cfg.ring)
    assert runs == [BlockOrder(1)] * (len(cfg.points) - 1)


def test_point_set_rejects_duplicates():
    with pytest.raises(DuplicatePointsError):
        PointSet([P(1, 0, 0), P(2, 0, 0)])


def test_points_ideal_examples():
    assert points_ideal(PointSet([P(1, 0, 0)]), R) == Ideal([y, z])
    two = points_ideal(PointSet([P(1, 0, 0), P(0, 1, 0)]), R)
    assert two == Ideal([z, x * y])
    # both inclusions
    for g in two.generators:
        assert Q.is_zero(g.evaluate((1, 0, 0)))
        assert Q.is_zero(g.evaluate((0, 1, 0)))


def test_points_ideal_of_pencil_grid_is_the_pencil():
    # the four points (+-1 : +-1 : 1) are cut out by y^2 - z^2 and z^2 - x^2
    H = PointSet([P(1, 1, 1), P(1, -1, 1), P(-1, 1, 1), P(-1, -1, 1)])
    f = y**2 - z**2
    g = z**2 - x**2
    assert points_ideal(H, R) == Ideal([f, g])


def test_symbolic_power_membership_examples():
    H = PointSet([P(0, 0, 1)])
    assert symbolic_power_membership(x * y, H, 2)
    assert not symbolic_power_membership(z, H, 1)
    assert not symbolic_power_membership(x, H, 2)


def test_symbolic_power_ideal_examples():
    single = symbolic_power_ideal(PointSet([P(0, 0, 1)]), 2, R)
    assert single == Ideal([x**2, x * y, y**2])
    # the pencil grid: symbolic powers are ordinary powers of the pencil
    H = PointSet([P(1, 1, 1), P(1, -1, 1), P(-1, 1, 1), P(-1, -1, 1)])
    f = y**2 - z**2
    g = z**2 - x**2
    assert symbolic_power_ideal(H, 2, R) == Ideal([f, g]).power(2)
    # r = 1 must agree with the points ideal
    three = PointSet([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)])
    assert symbolic_power_ideal(three, 1, R) == points_ideal(three, R)


def test_symbolic_power_budget():
    H = PointSet([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)])
    with pytest.raises(BudgetExceededError):
        symbolic_power_ideal(H, 3, R, budget=8)


def test_ordinary_power_inside_symbolic_power():
    H = PointSet([P(1, 0, 0), P(0, 1, 0), P(1, 1, 1)])
    I = points_ideal(H, R)
    for r in (1, 2):
        for g in I.power(r).generators:
            assert symbolic_power_membership(g, H, r)


def test_product_rule_for_symbolic_powers():
    H = PointSet([P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)])
    I = points_ideal(H, R)
    xi = I.generators[0]
    eta = I.generators[-1]
    assert symbolic_power_membership(xi * eta, H, 2)


def test_membership_agrees_with_full_intersection():
    H = PointSet([P(1, 0, 0), P(0, 1, 0), P(1, 1, 1)])
    full = symbolic_power_ideal(H, 2, R)
    samples = list(full.generators) + [x**4, (x - z) ** 2 * (y - z) ** 2]
    for f in samples:
        assert symbolic_power_membership(f, H, 2) == normal_form(f, full.groebner()).is_zero()


def test_cyclotomic_grid_points():
    F = CyclotomicField(3)
    S = base_ring(F)
    w = F.generator()
    pts = [ProjectivePoint(F, [F.pow(w, i), F.pow(w, j), F.one]) for i in range(1, 4) for j in range(1, 4)]
    H = PointSet(pts)
    assert len(H) == 9
    f = S.var("y") ** 3 - S.var("z") ** 3
    g = S.var("z") ** 3 - S.var("x") ** 3
    assert points_ideal(H, S) == Ideal([f, g])


def test_fermat4_memberships_invert_no_scalar():
    # the order-of-vanishing test only multiplies and adds: Taylor weights
    # are binomials times powers of the (already normalized) coordinates
    from symrees.configs import fermat

    cfg = fermat(4)
    w = cfg.witnesses
    field = cfg.field
    calls = []
    inv = field.inv

    def counted(a):
        calls.append(a)
        return inv(a)

    field.inv = counted
    try:
        for xi, r in ((w.xi1, w.r1), (w.xi2, w.r2)):
            assert symbolic_power_membership(xi, cfg.points, r)
            assert not symbolic_power_membership(xi, cfg.points, r + 1)
    finally:
        del field.inv
    assert calls == []


def test_membership_charts_at_infinity():
    # (2 : 1 : 0) has I_P = (x - 2y, z); (1 : 0 : 0) has I_P = (y, z)
    H = PointSet([P(2, 1, 0)])
    assert symbolic_power_membership((x - 2 * y) * z, H, 2)
    assert symbolic_power_membership((x - 2 * y) ** 3 + z**2 * y, H, 2)
    assert not symbolic_power_membership((x - 2 * y) ** 3 + z * y**2, H, 2)
    H = PointSet([P(1, 0, 0)])
    assert symbolic_power_membership(x**5 * y * z + y**2, H, 2)
    assert not symbolic_power_membership(x**5 * y + y**2, H, 2)
    # membership is in the ideal (y, z), so x - 1 fails although it is 0 at (1, 0, 0)
    assert not symbolic_power_membership(x - 1, H, 1)


def test_zero_coordinates_are_not_shifted():
    # at (1 : 0 : 0) and (0 : 0 : 1) both local variables are coordinates
    # themselves: the test only drops terms and multiplies no scalar
    field = RationalField()
    ring = base_ring(field)
    X, Y, Z = ring.var("x"), ring.var("y"), ring.var("z")
    at_x = PointSet([ProjectivePoint(field, [1, 0, 0])])
    at_z = PointSet([ProjectivePoint(field, [0, 0, 1])])
    cases = [(X**40 * Y * Z + Y**2, at_x, True), (X**40 * Y + Z**3, at_x, False),
             (X * Y * Z**40 + 3 * X**3, at_z, True), (X * Z**40 + Y**2, at_z, False)]
    calls = []
    mul = field.mul

    def counted(a, b):
        calls.append((a, b))
        return mul(a, b)

    field.mul = counted
    try:
        for xi, H, member in cases:
            assert symbolic_power_membership(xi, H, 2) == member
    finally:
        del field.mul
    assert calls == []


# --- order of vanishing against the Groebner route --------------------------------

F5, F7 = PrimeField(5), PrimeField(7)
Z3 = CyclotomicField(3)


def _scalar(field, rnd):
    if field is Q:
        return Fraction(rnd.randint(-3, 3), rnd.randint(1, 3))
    c = field.from_int(rnd.randint(-3, 3))
    if field is Z3:
        c = field.add(c, field.mul(field.from_int(rnd.randint(-3, 3)), field.generator()))
    return c


def _random_points(field, rnd):
    pts = []
    for _ in range(rnd.randint(1, 3)):
        chart = rnd.choice((2, 2, 2, 1, 0))   # (a : b : 1), (a : 1 : 0), (1 : 0 : 0)
        a, b = _scalar(field, rnd), _scalar(field, rnd)
        coords = [(a, b, 1), (a, 1, 0), (1, 0, 0)][2 - chart]
        pt = ProjectivePoint(field, list(coords))
        if pt not in pts:
            pts.append(pt)
    return PointSet(pts)


def _random_poly(ring, rnd, max_deg):
    terms = {}
    for _ in range(rnd.randint(1, 6)):
        d = rnd.randint(0, max_deg)
        i = rnd.randint(0, d)
        j = rnd.randint(0, d - i)
        terms[(i, j, d - i - j)] = _scalar(ring.field, rnd)
    return from_dict(ring, terms)


def _through(point, ring, rnd):
    """A random linear form vanishing at the point."""
    gens = defining_ideal(point, ring).generators
    return sum((g.scale(_scalar(ring.field, rnd)) for g in gens), ring.zero())


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, Z3, F5, F7]),
       st.integers(1, 4), st.sampled_from(["random", "member", "boundary"]))
def test_membership_matches_groebner_oracle(rnd, field, r, kind):
    ring = base_ring(field)
    H = _random_points(field, rnd)
    xi = _random_poly(ring, rnd, 4)
    if kind != "random":
        # a product of r (or r - 1) lines through each point lies in I_H^(r)
        # (or usually just misses it); the random factor keeps it generic
        for pt in H:
            for _ in range(r if kind == "member" else r - 1):
                xi = xi * _through(pt, ring, rnd)
    cache = PointPowerCache(ring)
    expected = all(normal_form(xi, cache.basis(pt, r)).is_zero() for pt in H)
    assert symbolic_power_membership(xi, H, r) == expected
    if kind == "member":
        assert expected



# --- two passes of Hasse derivatives against the per-point shift ------------------

Z5, F31 = CyclotomicField(5), PrimeField(31)


def _coordinate(field, rnd, pool):
    """Often zero, often a value drawn before, so that points share first
    coordinates within and across charts."""
    if pool and rnd.random() < 0.4:
        return rnd.choice(pool)
    c = field.from_int(rnd.choice([0, 0, 1, -1, rnd.randint(-40, 40)]))
    if field is Q and rnd.random() < 0.3:
        c = Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
    if isinstance(field, CyclotomicField) and rnd.random() < 0.5:
        zeta_k = field.pow(field.generator(), rnd.randint(1, field.n - 1))
        c = field.add(c, field.mul(field.from_int(rnd.randint(-2, 2)), zeta_k))
    pool.append(c)
    return c


def _homogeneous(ring, rnd, d):
    terms = {}
    for _ in range(rnd.randint(1, 4)):
        i = rnd.randint(0, d)
        j = rnd.randint(0, d - i)
        terms[(i, j, d - i - j)] = ring.field.from_int(rnd.choice([-5, -3, -2, -1, 1, 2, 3, 5]))
    return from_dict(ring, terms)


@settings(max_examples=80, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, Z3, Z5, F7, F31]),
       st.integers(1, 4), st.sampled_from(["member", "boundary", "random"]))
def test_hasse_passes_match_the_per_point_shift(rnd, field, r, kind):
    ring = base_ring(field)
    pool, pts = [], []
    for _ in range(rnd.randint(1, 5)):
        a, b = _coordinate(field, rnd, pool), _coordinate(field, rnd, pool)
        coords = rnd.choice([[a, b, field.one], [a, field.one, field.zero],
                             [field.one, field.zero, field.zero]])
        pt = ProjectivePoint(field, coords)
        if pt not in pts:
            pts.append(pt)
    H = PointSet(pts)
    # an inhomogeneous factor: two components of different degrees
    d = rnd.randint(0, 2)
    xi = _homogeneous(ring, rnd, d) + _homogeneous(ring, rnd, d + rnd.randint(1, 3))
    if kind != "random":
        # r lines through each point keep xi in I_H^(r); r - 1 usually miss it
        for pt in H:
            for _ in range(r if kind == "member" else r - 1):
                line = _through(pt, ring, rnd)
                xi = xi * (line if not line.is_zero() else defining_ideal(pt, ring).generators[0])
    expected = all(in_point_power_by_shift(xi.terms, field, pt, r) for pt in H)
    assert symbolic_power_membership(xi, H, r) == expected
    if kind == "member":
        assert expected


def test_each_degree_component_must_vanish():
    # x - z^2 vanishes at (1 : 2 : 1) only when its degree-1 and degree-2
    # components are summed, so it is not in I_P
    H = PointSet([P(1, 2, 1)])
    assert not symbolic_power_membership(x - z**2, H, 1)
    assert not symbolic_power_membership(z - z**2, PointSet([P(0, 0, 1)]), 1)
    # (x - z)*(z + z^2) is: each component is a multiple of x - z
    assert symbolic_power_membership((x - z) * (z + z**2), H, 1)
    assert symbolic_power_membership((x - z) ** 2 * (y - 2 * z) * (1 + z**3), H, 2)
    assert not symbolic_power_membership((x - z) * (y - 2 * z) * (1 + z**3) + x**3, H, 2)


def test_first_pass_is_shared_by_chart_and_first_coordinate():
    import symrees.points as points

    # the same first coordinate in different charts: the first pass along v
    # keeps w free, and w differs from chart to chart
    assert not symbolic_power_membership(x, PointSet([P(0, 0, 1), P(1, 0, 0)]), 1)
    assert not symbolic_power_membership(y, PointSet([P(0, 0, 1), P(0, 1, 0)]), 1)
    assert not symbolic_power_membership(x - 2 * z, PointSet([P(2, 3, 1), P(2, 1, 0)]), 1)
    assert symbolic_power_membership((x - 2 * z) * z, PointSet([P(2, 3, 1), P(2, 1, 0)]), 1)
    # one first pass per chart and first coordinate
    H = PointSet([P(1, 2, 1), P(1, 3, 1), P(2, 2, 1), P(1, 1, 0), P(2, 1, 0), P(1, 0, 0)])
    xi = (x - z) * (x - 2 * z) * (x - y) * (x - 2 * y) * z * y
    calls = []
    first_pass = points._first_pass

    def counted(terms, field, v, w, a, weights, r):
        calls.append((v, w, a))
        return first_pass(terms, field, v, w, a, weights, r)

    points._first_pass = counted
    try:
        assert symbolic_power_membership(xi, H, 1)
    finally:
        points._first_pass = first_pass
    assert calls == [(0, 1, 1), (0, 1, 2), (0, 2, 1), (0, 2, 2), (1, 2, 0)]


# --- one point per Galois orbit against the per-point route ------------------------


def _conjugate_point(pt, k):
    field = pt.field
    return ProjectivePoint(field, [field.conjugate(a, k) for a in pt.coords])


def _conjugate_poly(f, k):
    field = f.ring.field
    return Polynomial(f.ring, {m: field.conjugate(c, k) for m, c in f.terms.items()})


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False),
       st.sampled_from([CyclotomicField(3), CyclotomicField(5), CyclotomicField(12)]),
       st.integers(1, 3), st.sampled_from(["member", "boundary", "random", "base-only"]),
       st.booleans())
def test_membership_by_galois_orbit_matches_per_point_route(rnd, field, r, kind, twist):
    import symrees.points as points

    ring = base_ring(field)
    X, Y, Z = ring.var("x"), ring.var("y"), ring.var("z")
    ks = field.galois_exponents

    def scalar():
        return tuple(rnd.randint(-2, 2) for _ in range(field.degree))

    # H is a union of whole Galois orbits, in shuffled order
    bases, orbits = [], []
    for _ in range(rnd.randint(1, 2)):
        a, b = scalar(), scalar()
        pt = ProjectivePoint(field, rnd.choice([[a, b, field.one], [a, field.one, field.zero]]))
        orbit = frozenset(_conjugate_point(pt, k) for k in ks)
        if orbit not in orbits:
            bases.append(pt)
            orbits.append(orbit)
    pts = sorted(set().union(*orbits), key=str)
    rnd.shuffle(pts)
    H = PointSet(pts)

    # "member" multiplies a rational xi by r norms of a line through each base
    # point, which vanish to order r on its whole orbit; "base-only" by r
    # copies of the line itself, which vanishes at the base point alone
    xi = X ** rnd.randint(0, 2) + Y.scale(field.from_int(rnd.randint(1, 3))) * Z
    for pt in bases:
        line = _through(pt, ring, rnd)
        if line.is_zero():
            line = defining_ideal(pt, ring).generators[0]
        norm = ring.one()
        for k in ks:
            norm = norm * _conjugate_poly(line, k)
        assert all(not any(c[1:]) for c in norm.terms.values())
        factor = line if kind == "base-only" else norm
        for _ in range({"member": r, "boundary": r - 1, "random": 0, "base-only": r}[kind]):
            xi = xi * factor
    if twist:
        xi = xi * (X + Y.scale(field.generator()))
    fixed = [k for k in ks[1:] if _conjugate_poly(xi, k) == xi]
    if kind != "base-only" and not twist:
        assert fixed == list(ks[1:])   # xi is rational

    per_point = all(in_point_power_by_shift(xi.terms, field, pt, r) for pt in H)
    tested = []
    vanishes_at = points._vanishes_at

    def recorded(pt, *args):
        tested.append(pt)
        return vanishes_at(pt, *args)

    points._vanishes_at = recorded
    try:
        assert symbolic_power_membership(xi, H, r) == per_point
    finally:
        points._vanishes_at = vanishes_at
    if kind == "member":
        assert per_point
    if fixed == list(ks[1:]):
        # one tested point decides its whole orbit
        assert len({o for o in orbits for pt in tested if pt in o}) == len(tested)
        if per_point:
            assert len(tested) == len(orbits)
    elif not fixed:
        # no automorphism fixes xi: every point is tested, in order
        assert tested == list(H)[:len(tested)]
        if per_point:
            assert len(tested) == len(H)
