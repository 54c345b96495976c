"""Constructors for the built-in point configurations and their witness pairs.

Each constructor returns a ``Configuration`` bundling the field, the point
set, the witness polynomials with their symbolic-power exponents, and a
serializable provenance record.  Witness membership is *not* assumed here;
the verifier re-checks it.
"""

from __future__ import annotations

from math import gcd

from .errors import (
    BadAlphaError,
    CollinearPointsError,
    DegenerateParametersError,
    DuplicatePointsError,
    FactorThroughWrongPointError,
    InputError,
    ProportionalFactorsError,
    SamePointError,
    UnsupportedNError,
)
from .fields import CyclotomicField, Field, RationalField
from .ideals import Ideal
from .points import PointSet, ProjectivePoint, base_ring, points_ideal
from .polynomials import PolyRing, Polynomial


class WitnessPair:
    """A pair of witness polynomials with their symbolic-power exponents."""

    __slots__ = ("xi1", "r1", "xi2", "r2")

    def __init__(self, xi1, r1, xi2, r2):
        if r1 < 1 or r2 < 1:
            raise InputError("witness exponents must be positive")
        if xi1.is_zero() or xi2.is_zero():
            raise InputError("witnesses must be nonzero")
        self.xi1, self.r1, self.xi2, self.r2 = xi1, r1, xi2, r2

    def both_homogeneous(self):
        return self.xi1.is_homogeneous() and self.xi2.is_homogeneous()

    def __repr__(self):
        return f"WitnessPair(r1={self.r1}, r2={self.r2})"


class Configuration:
    """A labeled point set plus witnesses, with a lazily cached points ideal."""

    def __init__(self, label, field, points, witnesses, provenance):
        self.label = label
        self.field = field
        self.ring = base_ring(field)
        self.points = points
        self.witnesses = witnesses
        self.provenance = provenance
        self._ideal = None

    def points_ideal(self) -> Ideal:
        if self._ideal is None:
            self._ideal = points_ideal(self.points, self.ring)
        return self._ideal

    def __repr__(self):
        return f"Configuration({self.label}, {len(self.points)} points)"


# --- helpers -------------------------------------------------------------------

def _cross(field, a, b):
    mul, sub = field.mul, field.sub
    return (
        sub(mul(a[1], b[2]), mul(a[2], b[1])),
        sub(mul(a[2], b[0]), mul(a[0], b[2])),
        sub(mul(a[0], b[1]), mul(a[1], b[0])),
    )


def line_through(a: ProjectivePoint, b: ProjectivePoint, ring: PolyRing) -> Polynomial:
    """The linear form cutting out the line through two distinct points."""
    field = ring.field
    coeffs = _cross(field, a.coords, b.coords)
    if all(field.is_zero(c) for c in coeffs):
        raise SamePointError(f"{a} and {b} coincide")
    # normalize the first nonzero coefficient to 1
    lead = next(c for c in coeffs if not field.is_zero(c))
    inv = field.inv(lead)
    out = ring.zero()
    for name, c in zip(("x", "y", "z"), coeffs):
        if not field.is_zero(c):
            out = out + ring.var(name).scale(field.mul(c, inv))
    return out


def _line_intersection(f, g, field):
    """The point where two non-proportional lines meet."""
    pt = _cross(field, f.linear_coefficients(), g.linear_coefficients())
    if all(field.is_zero(c) for c in pt):
        raise ProportionalFactorsError("lines are proportional")
    return ProjectivePoint(field, list(pt))


def _vanishes_at(f, point):
    return point.field.is_zero(f.evaluate(point.coords))


def _roots_of_unity(field, k):
    """1, zeta_k, ..., zeta_k^(k-1) for a primitive k-th root of unity zeta_k."""
    zeta = field.root_of_unity(k)
    return [field.pow(zeta, j) for j in range(k)]


# --- three points ----------------------------------------------------------------

def three_points(p1, p2, p3) -> Configuration:
    """Three distinct non-collinear points with the product/sum-of-lines witnesses."""
    pts = [p1, p2, p3]
    field = p1.field
    if len(set(pts)) != 3:
        raise DuplicatePointsError("the three points must be distinct")
    det = _cross(field, p1.coords, p2.coords)
    dot = field.zero
    for c, d in zip(det, p3.coords):
        dot = field.add(dot, field.mul(c, d))
    if field.is_zero(dot):
        raise CollinearPointsError("the three points are collinear")
    ring = base_ring(field)
    f1 = line_through(p1, p2, ring)
    f2 = line_through(p2, p3, ring)
    f3 = line_through(p3, p1, ring)
    xi1 = f1 * f2 * f3
    xi2 = f1 * f2 + f2 * f3 + f3 * f1
    witnesses = WitnessPair(xi1, 2, xi2, 1)
    provenance = {
        "kind": "three-points",
        "points": [[field.scalar_str(c) for c in p.coords] for p in pts],
        "field": field.spec.to_json(),
    }
    return Configuration("three-points", field, PointSet(pts, "three-points"), witnesses, provenance)


# --- the n-th roots grid with coordinate triangle ---------------------------------

def fermat(n: int, alpha=None, field: Field | None = None) -> Configuration:
    """The n^2 + 3 point configuration cut out by the pencils of y^n - z^n and z^n - x^n.

    Needs a primitive n-th root of unity in the field (default: Q(zeta_n)).
    For n >= 4 the mixing scalar alpha must avoid 0 and 1; the default is 2.
    """
    if n <= 2:
        raise UnsupportedNError(f"n = {n} is outside the supported range (need n >= 3)")
    if field is None:
        field = CyclotomicField(n)
    if field.characteristic and n % field.characteristic == 0:
        raise InputError(f"characteristic {field.characteristic} divides n = {n}")
    theta = field.root_of_unity(n)
    ring = base_ring(field)
    x, y, z = (ring.var(v) for v in ("x", "y", "z"))

    pts = [
        ProjectivePoint(field, [1, 0, 0]),
        ProjectivePoint(field, [0, 1, 0]),
        ProjectivePoint(field, [0, 0, 1]),
    ]
    powers = [field.pow(theta, k) for k in range(1, n + 1)]
    for i in range(n):
        for j in range(n):
            pts.append(ProjectivePoint(field, [powers[i], powers[j], field.one]))

    f = y**n - z**n
    g = z**n - x**n
    h = x**n - y**n

    alpha_str = None
    if n == 3:
        xi1 = f * g * h
        r1 = 3
        xi2 = (x * f) * (y * g) + (y * g) * (z * h) + (z * h) * (x * f)
        r2 = 2
    else:
        if alpha is None:
            alpha = field.from_int(2)
        if alpha == field.zero or alpha == field.one:
            raise BadAlphaError("alpha must differ from 0 and 1")
        alpha_str = field.scalar_str(alpha)
        xi1 = f * g * h * (f.scale(alpha) + g) ** (n - 3)
        xi2 = (
            (x * f) ** 2 * (y * g) ** (n - 2)
            + (y * g) ** 2 * (z * h) ** (n - 2)
            + (z * h) ** 2 * (x * f) ** (n - 2)
            + f ** (n - 2) * g * h
        )
        r1 = r2 = n

    provenance = {"kind": "fermat", "n": n, "field": field.spec.to_json()}
    if alpha_str is not None:
        provenance["alpha"] = alpha_str
    label = f"fermat-{n}"
    return Configuration(label, field, PointSet(pts, label), WitnessPair(xi1, r1, xi2, r2), provenance)


# --- two pencils of lines -----------------------------------------------------------

def two_pencils(f_factors, g_factors, a: ProjectivePoint, b: ProjectivePoint) -> Configuration:
    """Two pencils of m and n lines through A and B, plus A and B themselves.

    The factors must be linear forms: each f_i through A but not B, each g_j
    through B but not A, pairwise non-proportional within each pencil.
    """
    m, n = len(f_factors), len(g_factors)
    if m < 2 or n < 2:
        raise DegenerateParametersError("both pencils need at least two lines")
    if a == b:
        raise SamePointError("the two base points coincide")
    field = a.field
    ring = base_ring(field)

    for name, factors, base, other in (("f", f_factors, a, b), ("g", g_factors, b, a)):
        for i, fac in enumerate(factors):
            deg, homog = fac.degree_and_homogeneity()
            if deg != 1 or not homog:
                raise InputError(f"{name}-factor {i} is not a linear form")
            if not _vanishes_at(fac, base):
                raise FactorThroughWrongPointError(f"{name}-factor {i} misses its base point")
            if _vanishes_at(fac, other):
                raise FactorThroughWrongPointError(f"{name}-factor {i} passes through the other base point")
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                pt = _cross(field, factors[i].linear_coefficients(), factors[j].linear_coefficients())
                if all(field.is_zero(c) for c in pt):
                    raise ProportionalFactorsError(f"{name}-factors {i} and {j} are proportional")

    grid = []
    for fi in f_factors:
        for gj in g_factors:
            grid.append(_line_intersection(fi, gj, field))
    if len(set(grid)) != m * n:
        raise InputError("pencil intersection points are not pairwise distinct")

    pts = [a, b] + grid
    f = f_factors[0]
    for fac in f_factors[1:]:
        f = f * fac
    g = g_factors[0]
    for fac in g_factors[1:]:
        g = g * fac
    h = line_through(a, b, ring)

    xi1 = f**n * g**m * (f + g) ** (m * n - m - n)
    xi2 = f * g + (f + g) ** 2 * h**2
    witnesses = WitnessPair(xi1, m * n, xi2, 2)

    provenance = {
        "kind": "two-pencils",
        "A": [field.scalar_str(c) for c in a.coords],
        "B": [field.scalar_str(c) for c in b.coords],
        "f_factors": [str(p) for p in f_factors],
        "g_factors": [str(p) for p in g_factors],
        "field": field.spec.to_json(),
    }
    label = f"two-pencils-{m}x{n}"
    return Configuration(label, field, PointSet(pts, label), witnesses, provenance)


def grid_example(m: int, n: int, field: Field | None = None) -> Configuration:
    """Two pencils built from y^m - z^m and z^n - x^n with A = (1:0:0), B = (0:1:0)."""
    if m < 2 or n < 2:
        raise DegenerateParametersError("grid sizes must both be at least 2")
    if field is None:
        l = m * n // gcd(m, n)
        field = RationalField() if l <= 2 else CyclotomicField(l)
    if field.characteristic and (m * n) % field.characteristic == 0:
        raise InputError(f"characteristic {field.characteristic} divides m*n")
    ring = base_ring(field)
    x, y, z = (ring.var(v) for v in ("x", "y", "z"))
    # y^m - z^m = -prod_j (z - zeta_m^j y) and z^n - x^n = prod_j (z - zeta_n^j x)
    f_factors = [z - y.scale(w) for w in _roots_of_unity(field, m)]
    f_factors[0] = -f_factors[0]
    g_factors = [z - x.scale(w) for w in _roots_of_unity(field, n)]
    a = ProjectivePoint(field, [1, 0, 0])
    b = ProjectivePoint(field, [0, 1, 0])
    cfg = two_pencils(f_factors, g_factors, a, b)
    cfg.label = f"grid-{m}x{n}"
    cfg.points.label = cfg.label
    cfg.provenance = {"kind": "grid", "m": m, "n": n, "field": field.spec.to_json()}
    return cfg
