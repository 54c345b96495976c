import pytest

from symrees.configs import (
    Configuration,
    WitnessPair,
    fermat,
    grid_example,
    line_through,
    three_points,
    two_pencils,
)
from symrees.errors import (
    BadAlphaError,
    CollinearPointsError,
    DegenerateParametersError,
    DuplicatePointsError,
    FactorThroughWrongPointError,
    MissingRootsError,
    ProportionalFactorsError,
    SamePointError,
    UnsupportedNError,
)
from symrees.fields import CyclotomicField, PrimeField, RationalField
from symrees.ideals import Ideal
from symrees.parsing import parse_polynomial
from symrees.points import ProjectivePoint, base_ring, points_ideal, symbolic_power_membership

Q = RationalField()
R = base_ring(Q)
x, y, z = R.var("x"), R.var("y"), R.var("z")


def P(*coords, field=Q):
    return ProjectivePoint(field, list(coords))


# --- line through two points -----------------------------------------------------


def test_line_through_examples():
    assert line_through(P(1, 0, 0), P(0, 1, 0), R) == z
    assert line_through(P(0, 0, 1), P(1, 1, 1), R) == x - y
    with pytest.raises(SamePointError):
        line_through(P(1, 0, 0), P(2, 0, 0), R)


def test_line_through_vanishes_at_both():
    a, b = P(1, 2, 3), P(0, 1, 5)
    u = line_through(a, b, R)
    assert Q.is_zero(u.evaluate(a.coords))
    assert Q.is_zero(u.evaluate(b.coords))
    assert u.degree_and_homogeneity() == (1, True)


# --- three points ------------------------------------------------------------------


def test_three_points_coordinate_triangle():
    cfg = three_points(P(1, 0, 0), P(0, 1, 0), P(0, 0, 1))
    w = cfg.witnesses
    assert w.xi1 == x * y * z
    assert w.xi2 == x * y + y * z + z * x
    assert (w.r1, w.r2) == (2, 1)


def test_three_points_memberships_hold():
    cfg = three_points(P(1, 2, 1), P(0, 1, 1), P(1, 0, 3))
    assert symbolic_power_membership(cfg.witnesses.xi1, cfg.points, 2)
    assert symbolic_power_membership(cfg.witnesses.xi2, cfg.points, 1)


def test_three_points_rejects_collinear_and_duplicates():
    with pytest.raises(CollinearPointsError):
        three_points(P(1, 0, 0), P(0, 1, 0), P(1, 1, 0))
    with pytest.raises(DuplicatePointsError):
        three_points(P(1, 0, 0), P(1, 0, 0), P(0, 0, 1))


# --- the roots-of-unity grid ---------------------------------------------------------


def test_fermat_structure():
    cfg = fermat(3)
    assert len(cfg.points) == 12
    F = cfg.field
    S = cfg.ring
    f = S.var("y") ** 3 - S.var("z") ** 3
    g = S.var("z") ** 3 - S.var("x") ** 3
    h = S.var("x") ** 3 - S.var("y") ** 3
    assert (f + g + h).is_zero()
    # the nine grid points satisfy all three pencils
    for pt in cfg.points[3:]:
        for form in (f, g, h):
            assert F.is_zero(form.evaluate(pt.coords))
    assert cfg.witnesses.r1 == 3 and cfg.witnesses.r2 == 2
    assert cfg.witnesses.xi1.degree_and_homogeneity() == (9, True)
    assert cfg.witnesses.xi2.degree_and_homogeneity() == (8, True)


def test_fermat_point_count_is_n_squared_plus_three():
    for n, field in ((3, None), (4, None), (5, PrimeField(11, root_order=5))):
        cfg = fermat(n, field=field)
        assert len(cfg.points) == n * n + 3


def test_fermat_witness_memberships():
    cfg = fermat(3)
    assert symbolic_power_membership(cfg.witnesses.xi1, cfg.points, 3)
    assert symbolic_power_membership(cfg.witnesses.xi2, cfg.points, 2)


def test_fermat_four_witnesses():
    cfg = fermat(4)
    w = cfg.witnesses
    assert (w.r1, w.r2) == (4, 4)
    assert w.xi1.is_homogeneous()
    d2, homog2 = w.xi2.degree_and_homogeneity()
    assert not homog2
    # top-degree terms are the squared-times-powered products of degree n(n+1)
    assert d2 == 4 * 5
    assert w.xi1.total_degree() == 16


def test_fermat_five_homogeneous_witness_degree():
    cfg = fermat(5, field=PrimeField(11, root_order=5))
    assert cfg.witnesses.xi1.degree_and_homogeneity() == (25, True)


def test_fermat_rejects_bad_parameters():
    with pytest.raises(UnsupportedNError):
        fermat(2)
    with pytest.raises(BadAlphaError):
        fermat(4, alpha=CyclotomicField(4).one)
    with pytest.raises(BadAlphaError):
        fermat(4, alpha=CyclotomicField(4).zero)


# --- two pencils ------------------------------------------------------------------


def test_grid_two_by_two_structure():
    cfg = grid_example(2, 2)
    assert isinstance(cfg.field, RationalField)
    assert len(cfg.points) == 6
    # h is the line through (1:0:0) and (0:1:0)
    coords = {p.coords for p in cfg.points}
    assert (1, 0, 0) in coords and (0, 1, 0) in coords
    for sx in (1, -1):
        for sy in (1, -1):
            assert (sx, sy, 1) in coords
    assert cfg.witnesses.r1 == 4 and cfg.witnesses.r2 == 2
    assert not cfg.witnesses.xi2.is_homogeneous()


def test_grid_two_by_three_needs_sixth_roots():
    cfg = grid_example(2, 3)
    assert isinstance(cfg.field, CyclotomicField) and cfg.field.n == 6
    assert len(cfg.points) == 8
    assert cfg.witnesses.r1 == 6 and cfg.witnesses.r2 == 2


def test_grid_pencil_ideal_is_the_points_ideal_of_the_grid():
    from symrees.points import PointSet

    cfg = grid_example(2, 2)
    S = cfg.ring
    f = S.var("y") ** 2 - S.var("z") ** 2
    g = S.var("z") ** 2 - S.var("x") ** 2
    grid_only = PointSet(cfg.points[2:])
    assert points_ideal(grid_only, S) == Ideal([f, g])


def test_two_pencils_memberships():
    cfg = grid_example(2, 2)
    assert symbolic_power_membership(cfg.witnesses.xi1, cfg.points, 4)
    assert symbolic_power_membership(cfg.witnesses.xi2, cfg.points, 2)


def test_two_pencils_validation_errors():
    a, b = P(1, 0, 0), P(0, 1, 0)
    f1 = y - z
    f2 = y + z
    g1 = z - x
    g2 = z + x
    with pytest.raises(DegenerateParametersError):
        two_pencils([f1], [g1, g2], a, b)
    with pytest.raises(SamePointError):
        two_pencils([f1, f2], [g1, g2], a, a)
    with pytest.raises(ProportionalFactorsError):
        two_pencils([f1, f1.scale(Q.from_int(2))], [g1, g2], a, b)
    with pytest.raises(FactorThroughWrongPointError):
        two_pencils([f1, z], [g1, g2], a, b)           # z passes through B too
    with pytest.raises(FactorThroughWrongPointError):
        two_pencils([f1, x - y], [g1, g2], a, b)       # x - y misses A
    with pytest.raises(DegenerateParametersError):
        grid_example(1, 3)


def test_two_pencils_h_line():
    cfg = grid_example(2, 2)
    # provenance records the factors; h must be z = line through A and B
    a = P(1, 0, 0)
    b = P(0, 1, 0)
    assert line_through(a, b, cfg.ring) == z


# --- the grid's pencils ----------------------------------------------------------------


@pytest.mark.parametrize("m,n,field,f_texts,g_texts", [
    (2, 2, Q, ["y - z", "z + y"], ["z - x", "z + x"]),
    # zeta_6 = w with w^2 = w - 1, so zeta_3 = w - 1 and zeta_3^2 = -w
    (2, 3, CyclotomicField(6), ["y - z", "z + y"], ["z - x", "z - (w - 1)*x", "z + w*x"]),
    (2, 2, PrimeField(13, root_order=2), ["y - z", "z + y"], ["z - x", "z + x"]),
], ids=["2x2-Q", "2x3-zeta6", "2x2-F13"])
def test_grid_pencils_are_pinned(m, n, field, f_texts, g_texts):
    S = base_ring(field)
    X, Y, Z = S.var("x"), S.var("y"), S.var("z")
    f_factors = [parse_polynomial(t, S) for t in f_texts]
    g_factors = [parse_polynomial(t, S) for t in g_texts]
    f = f_factors[0]
    for fac in f_factors[1:]:
        f = f * fac
    g = g_factors[0]
    for fac in g_factors[1:]:
        g = g * fac
    assert f == Y**m - Z**m and g == Z**n - X**n
    ref = two_pencils(f_factors, g_factors, P(1, 0, 0, field=field), P(0, 1, 0, field=field))
    cfg = grid_example(m, n, field)
    assert cfg.witnesses.xi1.terms == ref.witnesses.xi1.terms
    assert cfg.witnesses.xi2.terms == ref.witnesses.xi2.terms
    assert [p.coords for p in cfg.points] == [p.coords for p in ref.points]


def test_grid_needs_its_roots_of_unity():
    with pytest.raises(MissingRootsError):
        grid_example(2, 3, Q)                  # no primitive cube root of unity
    with pytest.raises(MissingRootsError):
        grid_example(2, 3, PrimeField(11))     # 3 does not divide 11 - 1


def test_witness_pair_validation():
    with pytest.raises(Exception):
        WitnessPair(R.zero(), 1, x, 1)
    with pytest.raises(Exception):
        WitnessPair(x, 0, y, 1)

