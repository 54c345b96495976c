"""Projective points, their defining ideals, finite point sets, and symbolic powers.

Points are homogeneous coordinate triples normalized so the last nonzero
coordinate is 1, matching the (a : b : 1) shape of the grid constructions.
The defining ideal of a point is written down as its reduced grevlex basis:
with x_c the variable of that coordinate, the two forms x_i - P_i*x_c for
i != c, where P_i = 0 past c.

Symbolic power membership is checked point by point by order of vanishing,
with no Groebner basis.  Let c be the coordinate of P normalized to 1 and
a = P[v], b = P[w] the other two.  xi lies in I_P^r = I_P^(r) exactly when,
in each degree component of xi, the Hasse derivatives
D^(s,t) = sum C(i, s) C(j, t) a^(i-s) b^(j-t) coef(v^i w^j) with s + t < r
vanish; binomials taken in the field keep this exact in every
characteristic (Zariski-Nagata; Dao, De Stefani, Grifo, Huneke and
Nunez-Betancourt, Symbolic powers of ideals, 2018).  A first pass sums over
i once per chart and value of a, a second over j once per point; a zero
coordinate multiplies nothing.  Over Q(zeta_n) a witness that the
automorphisms zeta -> zeta^k fix is tested at one point of each Galois
orbit of H.  The tests check this against the per-point coordinate shift
in ``tests/helpers.py``.

``PointPowerCache`` keeps the Groebner route, reduced bases of I_P^r, as the
reference the tests compare against.  The global intersection is only formed
by ``symbolic_power_ideal``, which is budget-guarded because its cost grows
with #points * r.
"""

from __future__ import annotations

from math import comb

from .errors import BudgetExceededError, DuplicatePointsError, InputError
from .ideals import Ideal, intersect_all
from .polynomials import PolyRing


class ProjectivePoint:
    __slots__ = ("field", "coords")

    def __init__(self, field, coords):
        coords = [field.from_int(c) if isinstance(c, int) else c for c in coords]
        if len(coords) != 3:
            raise InputError("a projective point needs three coordinates")
        last = None
        for i in range(2, -1, -1):
            if not field.is_zero(coords[i]):
                last = i
                break
        if last is None:
            raise InputError("(0 : 0 : 0) is not a projective point")
        inv = field.inv(coords[last])
        self.field = field
        self.coords = tuple(field.mul(c, inv) for c in coords)

    def __eq__(self, other):
        return (
            isinstance(other, ProjectivePoint)
            and self.field == other.field
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.field, self.coords))

    def __str__(self):
        return "(" + " : ".join(self.field.scalar_str(c) for c in self.coords) + ")"

    def __repr__(self):
        return f"ProjectivePoint{self}"


class PointSet:
    """An ordered set of pairwise distinct projective points."""

    __slots__ = ("points", "label")

    def __init__(self, points, label=""):
        points = tuple(points)
        if len(set(points)) != len(points):
            raise DuplicatePointsError("point set contains repeated points")
        if not points:
            raise InputError("point set is empty")
        self.points = points
        self.label = label

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)

    def __getitem__(self, i):
        return self.points[i]

    @property
    def field(self):
        return self.points[0].field

    def __repr__(self):
        return f"PointSet({self.label or len(self.points)}, {len(self.points)} points)"


def base_ring(field) -> PolyRing:
    return PolyRing(field, ("x", "y", "z"))


def defining_ideal(point: ProjectivePoint, ring: PolyRing) -> Ideal:
    """Ideal of the point, generated by its reduced grevlex basis x_i - P_i*x_c,
    i != c, with x_c the last variable whose coordinate is nonzero (so 1):
    monic forms whose leads are the other variables, with tails in x_c."""
    coords = point.coords
    c = max(i for i in range(3) if not point.field.is_zero(coords[i]))
    x = [ring.var(v) for v in ("x", "y", "z")]
    return Ideal([x[i] - x[c].scale(coords[i]) for i in range(3) if i != c], ring=ring)


def points_ideal(H: PointSet, ring: PolyRing) -> Ideal:
    """Intersection of the point ideals, iterated left to right."""
    return intersect_all(defining_ideal(P, ring) for P in H)


class PointPowerCache:
    """Reduced bases of I_P^r, keyed by (point, r): the Groebner route to
    membership, kept as the reference for ``symbolic_power_membership``."""

    def __init__(self, ring):
        self.ring = ring
        self._bases = {}

    def basis(self, point, r):
        key = (point, r)
        gb = self._bases.get(key)
        if gb is None:
            gb = defining_ideal(point, self.ring).power(r).groebner()
            self._bases[key] = gb
        return gb


def _taylor_weights(field, a, top, r):
    """weights[i][s] = C(i, s) * a^(i - s), the s-th Hasse derivative of Y^i
    at a, for i <= ``top`` and s < r: one power table of a, binomials taken
    in the field."""
    powers = [field.one]
    for _ in range(top):
        powers.append(field.mul(powers[-1], a))
    return [[powers[i]] + [field.mul(field.from_int(comb(i, s)), powers[i - s])
                           for s in range(1, min(i + 1, r))]
            for i in range(top + 1)]


def _first_pass(terms, field, v, w, a, weights, r):
    """rows[s][(d, j)] = sum over i of C(i, s) * a^(i - s) * coef(v^i w^j) in
    the degree-d component: the s-th Hasse derivative along v at v = a,
    with w still free.  A zero a keeps only i = s, and multiplies nothing."""
    rows = [{} for _ in range(r)]
    if field.is_zero(a):
        for m, coeff in terms.items():
            if m[v] < r:
                rows[m[v]][(sum(m), m[w])] = coeff
        return rows
    mul, add = field.mul, field.add
    table = weights(a)
    for m, coeff in terms.items():
        i, key = m[v], (sum(m), m[w])
        row_weights = table[i]
        for s in range(min(i + 1, r)):
            term = mul(coeff, row_weights[s])
            prev = rows[s].get(key)
            rows[s][key] = term if prev is None else add(prev, term)
    return rows


def _vanishes_at(P, terms, field, r, passes, weights):
    """True iff the polynomial with ``terms`` lies in I_P^r: in each degree d,
    every D^(s,t) = sum over j of C(j, t) * b^(j - t) * rows[s][(d, j)] with
    s + t < r is zero, where rows is the first pass of P's chart and first
    coordinate, taken from ``passes`` or made and kept there."""
    coords = P.coords
    is_zero = field.is_zero
    c = max(i for i in range(3) if not is_zero(coords[i]))
    v, w = (u for u in range(3) if u != c)
    a, b = coords[v], coords[w]
    rows = passes.get((c, a))
    if rows is None:
        rows = passes[c, a] = _first_pass(terms, field, v, w, a, weights, r)
    if is_zero(b):
        return all(is_zero(e) for s in range(r) for (d, j), e in rows[s].items() if s + j < r)
    mul, add, zero = field.mul, field.add, field.zero
    table = weights(b)
    for s in range(r):
        room = r - s
        sums = {}                           # d -> [D^(s,t) for t < room]
        for (d, j), e in rows[s].items():
            acc = sums.get(d)
            if acc is None:
                acc = sums[d] = [zero] * room
            row_weights = table[j]
            for t in range(min(j + 1, room)):
                acc[t] = add(acc[t], mul(e, row_weights[t]))
        if not all(is_zero(D) for acc in sums.values() for D in acc):
            return False
    return True


def symbolic_power_membership(xi, H: PointSet, r: int) -> bool:
    """True iff xi lies in the r-th power of every point ideal of H.

    One point per Galois orbit is tested.  When sigma_k fixes xi it maps
    I_P^r onto I_{sigma_k P}^r, so xi lies in one exactly when it lies in
    the other: a tested point decides its conjugates sigma_k P too.  Over
    Q and F_p, and for an xi no sigma_k != 1 fixes, every point is tested.
    """
    if r < 1:
        raise InputError("symbolic power exponent must be >= 1")
    if xi.is_zero():
        return True
    field = xi.ring.field
    fixing = [k for k in field.galois_exponents[1:]
              if all(field.conjugate(c, k) == c for c in xi.terms.values())]
    top = max(sum(m) for m in xi.terms)
    tables = {}                             # scalar -> its Taylor weights

    def weights(a):
        table = tables.get(a)
        if table is None:
            table = tables[a] = _taylor_weights(field, a, top, r)
        return table

    passes = {}                             # (chart, first coordinate) -> first pass
    decided = set()
    for P in H:
        if P.coords in decided:
            continue
        if not _vanishes_at(P, xi.terms, field, r, passes, weights):
            return False
        # sigma_k keeps 0 and 1, so it keeps the normalized coordinates normalized
        decided.update(tuple(field.conjugate(a, k) for a in P.coords) for k in fixing)
    return True


def symbolic_power_ideal(H: PointSet, r: int, ring: PolyRing, budget: int = 64) -> Ideal:
    """The full intersection of the r-th powers of the point ideals.

    Cost grows quickly with #H * r, hence the budget guard; membership tests
    should go through ``symbolic_power_membership`` instead.
    """
    if r < 1:
        raise InputError("symbolic power exponent must be >= 1")
    if len(H) * r > budget:
        raise BudgetExceededError(
            f"#H * r = {len(H) * r} exceeds the budget of {budget}"
        )
    return intersect_all(defining_ideal(P, ring).power(r) for P in H)
