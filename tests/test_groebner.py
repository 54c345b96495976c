from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    LEX,
    compare,
    from_dict,
    lead_term,
    local_leads_by_elimination,
    mono_divides,
    reference_key,
    s_polynomial,
    with_truncation_monomials,
)
from symrees.errors import BudgetExceededError, EmptyIdealError, InputError, ZeroPolynomialError
from symrees.fields import CyclotomicField, PrimeField, RationalField
from symrees import groebner
from symrees.groebner import (
    EXP_BITS,
    MAX_DEGREE,
    _completed_basis,
    _Packing,
    lead_monomial_basis,
    normal_form,
    reduced_groebner_basis,
)
from symrees.polynomials import DS, GREVLEX, BlockOrder, PolyRing

Q = RationalField()
R = PolyRing(Q)
x, y, z = R.var("x"), R.var("y"), R.var("z")


def test_s_polynomial_examples():
    assert s_polynomial(x, y).is_zero()
    assert s_polynomial(x**2 - y, x * y - 1) == x - y**2
    f = x**2 + y * z
    assert s_polynomial(f, f).is_zero()


def test_s_polynomial_of_zero_raises():
    with pytest.raises(ZeroPolynomialError):
        s_polynomial(R.zero(), x)


def test_normal_form_examples():
    assert normal_form(x, [x]).is_zero()
    assert normal_form(x**2 + y, [x]) == y
    assert normal_form(x**2 + y, [y - z]) == x**2 + z


def test_normal_form_empty_basis():
    with pytest.raises(Exception):
        normal_form(x, [])


def test_reduced_basis_examples():
    gb = reduced_groebner_basis([x, y])
    assert [str(p) for p in gb] == ["y", "x"]
    gb = reduced_groebner_basis([x + y, y])
    assert [str(p) for p in gb] == ["y", "x"]


def test_reduced_basis_point_minors():
    # minors of the coordinate matrix at (1:1:1), row reduced by hand:
    # {x - z, y - z}
    gens = [x - y, x - z, y - z]
    gb = reduced_groebner_basis(gens)
    assert set(str(p) for p in gb) == {"y - z", "x - z"}
    for i in range(len(gb.polynomials)):
        for j in range(i + 1, len(gb.polynomials)):
            s = s_polynomial(gb.polynomials[i], gb.polynomials[j])
            if not s.is_zero():
                assert normal_form(s, gb).is_zero()


def test_empty_ideal_raises():
    with pytest.raises(EmptyIdealError):
        reduced_groebner_basis([R.zero()])


def test_textbook_basis():
    # the classic pair (x^2 + y, x*y - y) acquires y^2 + y in its reduced basis
    gb = reduced_groebner_basis([x**2 + y, x * y - y])
    assert normal_form(y**2 + y, gb).is_zero()
    assert not normal_form(x, gb).is_zero()


def test_membership_fermat3_cross_term():
    # each of x*f, y*g, z*h is divisible by x, y, z respectively and the other
    # factor lies in (x, y) as well, so the sum of pairwise products lies in
    # (x, y)^2; the normal form against its basis must vanish
    F = CyclotomicField(3)
    S = PolyRing(F)
    X, Y, Z = S.var("x"), S.var("y"), S.var("z")
    f = Y**3 - Z**3
    g = Z**3 - X**3
    h = X**3 - Y**3
    xi2 = (X * f) * (Y * g) + (Y * g) * (Z * h) + (Z * h) * (X * f)
    sq = reduced_groebner_basis([X**2, X * Y, Y**2])
    assert normal_form(xi2, sq).is_zero()
    # cross-check on the individual products
    for a, b in ((X * f, Y * g), (Y * g, Z * h), (Z * h, X * f)):
        assert normal_form(a * b, sq).is_zero()


# --- randomized suites ---------------------------------------------------------------


def _random_scalar(field, rnd):
    """A small integral scalar; over Q(zeta_n) one with every power of zeta."""
    if isinstance(field, CyclotomicField):
        return tuple(rnd.randint(-3, 3) for _ in range(field.degree))
    return field.from_int(rnd.randint(-5, 5))


def _random_polys(ring, rnd, count=3, max_terms=3, max_exp=3, constant=True):
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rnd.randint(1, max_terms)):
            m = tuple(rnd.randint(0, max_exp) for _ in range(ring.nvars))
            if constant or any(m):
                terms[m] = _random_scalar(ring.field, rnd)
        p = from_dict(ring, terms)
        if not p.is_zero():
            out.append(p)
    return out


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([PrimeField(13), CyclotomicField(3)]))
def test_all_s_pairs_reduce_to_zero(rnd, field):
    ring = PolyRing(field, ("x", "y"))
    gens = _random_polys(ring, rnd)
    if not gens:
        return
    gb = reduced_groebner_basis(gens)
    polys = gb.polynomials
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            s = s_polynomial(polys[i], polys[j])
            if not s.is_zero():
                assert normal_form(s, gb).is_zero()


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_permutation_invariance(rnd):
    for field in (Q, PrimeField(13)):
        ring = PolyRing(field, ("x", "y", "z"))
        gens = _random_polys(ring, rnd, count=3, max_terms=3, max_exp=2)
        if not gens:
            continue
        gb1 = reduced_groebner_basis(gens)
        shuffled = gens[:]
        rnd.shuffle(shuffled)
        gb2 = reduced_groebner_basis(shuffled)
        assert gb1.polynomials == gb2.polynomials


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_division_round_trip(rnd):
    for field in (Q, CyclotomicField(4), PrimeField(13)):
        ring = PolyRing(field, ("x", "y"))
        polys = _random_polys(ring, rnd, count=2)
        f = _random_polys(ring, rnd, count=1, max_terms=4)
        if not polys or not f:
            continue
        f = f[0]
        rem = normal_form(f, polys)
        # f - rem is a combination of the divisors: it lies in their ideal
        assert normal_form(f - rem, reduced_groebner_basis(polys)).is_zero()
        # no remainder term is divisible by any lead monomial
        leads = [lead_term(p, GREVLEX)[0] for p in polys]
        for m in rem.terms:
            assert not any(all(a <= b for a, b in zip(lm, m)) for lm in leads)


@settings(max_examples=20)
@given(st.randoms(use_true_random=False))
def test_membership_iff_normal_form_zero(rnd):
    ring = PolyRing(PrimeField(13), ("x", "y"))
    gens = _random_polys(ring, rnd, count=2)
    if not gens:
        return
    gb = reduced_groebner_basis(gens)
    # elements built from the generators must reduce to zero
    combo = ring.zero()
    for g in gens:
        mults = _random_polys(ring, rnd, count=1)
        if mults:
            combo = combo + g * mults[0]
    if not combo.is_zero():
        assert normal_form(combo, gb).is_zero()


# --- integral lead coefficients over Q(zeta_n) ----------------------------------------

CYCLOTOMIC = [CyclotomicField(3), CyclotomicField(5)]


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(CYCLOTOMIC))
def test_cyclotomic_basis_elements_have_rational_integer_leads(rnd, field):
    ring = PolyRing(field, ("x", "y", "z"))
    gens = _random_polys(ring, rnd, max_exp=2)
    if not gens:
        return
    _, _, _, basis = _completed_basis(gens, GREVLEX, None)
    for _, lc, items in basis:
        assert lc == items[0][1]
        assert not any(lc[1:]) and isinstance(lc[0], int)
        coords = [v for _, c in items for v in c]
        assert all(isinstance(v, int) for v in coords)
        assert gcd(*coords) == 1


@settings(max_examples=30, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(CYCLOTOMIC))
def test_cyclotomic_scalars_leave_the_reduced_basis_unchanged(rnd, field):
    ring = PolyRing(field, ("x", "y", "z"))
    gens = _random_polys(ring, rnd, max_exp=2)
    if not gens:
        return
    scaled = []
    for g in gens:
        c = field.zero
        while field.is_zero(c):
            c = _random_scalar(field, rnd)
        scaled.append(g.scale(c))
    assert reduced_groebner_basis(scaled).polynomials == reduced_groebner_basis(gens).polynomials


def test_symbolic_power_basis_coefficients_stay_small(monkeypatch):
    # without the integral lead the kept elements of this run reach about
    # 5,900-bit coordinates; its 13 answer generators have at most 3 bits
    from symrees.configs import fermat
    from symrees.points import symbolic_power_ideal

    cfg = fermat(3)
    normalize = groebner._normalize_element
    widest = []

    def checked(items, field):
        out = normalize(items, field)
        widest.append(max(abs(v).bit_length() for _, c in out for v in c))
        return out

    monkeypatch.setattr(groebner, "_normalize_element", checked)
    symbolic_power_ideal(cfg.points, 3, cfg.ring)
    assert widest and max(widest) < 64


@pytest.mark.parametrize("make, r", [("fermat-3", 3), ("grid-2x2", 2)])
def test_char0_leads_are_positive_rational_integers(monkeypatch, make, r):
    # over Q(zeta_3) and over Q: a lead of -1 would scale every reduction by -1
    from symrees.configs import fermat, grid_example
    from symrees.points import symbolic_power_ideal

    cfg = fermat(3) if make == "fermat-3" else grid_example(2, 2)
    normalize = groebner._normalize_element
    leads = []

    def checked(items, field):
        out = normalize(items, field)
        leads.append(out[0][1])
        return out

    monkeypatch.setattr(groebner, "_normalize_element", checked)
    symbolic_power_ideal(cfg.points, r, cfg.ring)
    assert leads
    if make == "fermat-3":
        assert all(lc[0] > 0 and not any(lc[1:]) for lc in leads)
    else:
        assert all(type(lc) is int and lc > 0 for lc in leads)


# --- truncated local-order runs ------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, CyclotomicField(3), PrimeField(7)]),
       st.sampled_from([2, 3]), st.booleans())
def test_truncated_ds_leads_match_elimination(rnd, field, nvars, with_power):
    ring = PolyRing(field, ("x", "y", "z")[:nvars])
    # small n next to the generators' degrees puts pairs at the covered degree
    n = rnd.randint(2, 6 if nvars == 2 else 4)
    gens = _random_polys(ring, rnd, max_terms=4, max_exp=rnd.randint(1, 3), constant=False)
    if with_power:
        gens = with_truncation_monomials(gens, ring, n)  # J plus m^n
    if not gens:  # every draw was zero
        with pytest.raises(EmptyIdealError):
            lead_monomial_basis(gens, order=DS, truncate_degree=n)
        return
    # a J inside m^(n+1) leaves no lead on either side
    leads = lead_monomial_basis(gens, order=DS, truncate_degree=n)
    assert len(set(leads)) == len(leads)
    assert set(leads) == local_leads_by_elimination(gens, n)


def test_truncated_run_ends_at_its_first_covered_degree(monkeypatch):
    # fermat-4 over F_13, seed 0: degree 35 is the first without a standard
    # monomial (stable_at 36), so the run at N' = 40 reduces no S-polynomial
    # whose terms all have degree >= 36
    from symrees.configs import fermat
    from symrees.verifier import _eliminate_along, pick_generic_linear_form

    cfg = fermat(4, field=PrimeField(13, root_order=4))
    u = pick_generic_linear_form(cfg.points, seed=0)
    a, b = _eliminate_along(u, [cfg.witnesses.xi1, cfg.witnesses.xi2])
    gens = with_truncation_monomials([a, b], a.ring, 40)  # J plus m^40
    reduce = groebner._reduce
    lowest = []

    def recorded(terms, reducers, field, pk):
        if terms:
            lowest.append(min((m & pk.deg_mask) >> (pk.nvars * EXP_BITS) for m, _ in terms))
        return reduce(terms, reducers, field, pk)

    monkeypatch.setattr(groebner, "_reduce", recorded)
    leads = lead_monomial_basis(gens, order=DS, truncate_degree=40)
    assert lowest and max(lowest) < 36
    counts = [groebner.standard_count(leads, 2, d) for d in range(40)]
    assert counts.index(0) + 1 == 36
    # with no degree ever covered every pair of lcm degree <= 40 is reduced
    reduced_with_cut = len(lowest)
    monkeypatch.setattr(groebner, "standard_count", lambda leads, nvars, d: 1)
    assert lead_monomial_basis(gens, order=DS, truncate_degree=40) == leads
    assert max(lowest[reduced_with_cut:]) >= 36


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, CyclotomicField(3), PrimeField(7)]))
def test_local_reduction_stops_at_the_lead_of_the_full_remainder(rnd, field):
    ring = PolyRing(field, ("x", "y"))
    polys = _random_polys(ring, rnd, count=4, max_terms=4, constant=False)
    if len(polys) < 2:
        return
    f, gens = polys[0], polys[1:]

    def reduce(order, cap, full):
        pk = _Packing(order, 2, cap)
        pk.local = pk.local and not full   # full reduction under the same order
        reducers = []
        for g in gens:
            items = groebner._prepare(g, pk)
            if items:
                items = groebner._normalize_element(items, field)
                reducers.append((items[0][0], items[0][1], items))
        rem = groebner._reduce(groebner._prepare(f, pk), reducers, field, pk)
        irreducible = [all((m - lm) & pk.guard for lm, _, _ in reducers) for m, _ in rem]
        return [pk.unpack(m) for m, _ in rem], irreducible

    cap = rnd.randint(3, 9)
    weak, weak_irreducible = reduce(DS, cap, full=False)
    full, full_irreducible = reduce(DS, cap, full=True)
    assert all(full_irreducible)
    # under DS the remainder's first monomial is irreducible and is the lead
    # of the full remainder; the rest is carried as it stood
    assert bool(weak) == bool(full)
    if weak:
        assert weak_irreducible[0] and weak[0] == full[0]
    # under grevlex the remainder is the full one: every term irreducible
    assert all(reduce(GREVLEX, None, full=False)[1])


def test_local_reduction_leaves_the_tail_unreduced():
    S = PolyRing(PrimeField(7), ("x", "y"))
    a, b = S.var("x"), S.var("y")
    pk = _Packing(DS, 2, 6)
    reducers = [(items[0][0], items[0][1], items)
                for items in (groebner._prepare(g, pk) for g in (a, b**2))]
    # the lead y is irreducible, so y^2 + x^3 is carried as it stands; full
    # reduction kills both against y^2 and x
    rem = groebner._reduce(groebner._prepare(b + b**2 + a**3, pk), reducers, S.field, pk)
    assert [pk.unpack(m) for m, _ in rem] == [(0, 1), (0, 2), (3, 0)]
    pk.local = False
    rem = groebner._reduce(groebner._prepare(b + b**2 + a**3, pk), reducers, S.field, pk)
    assert [pk.unpack(m) for m, _ in rem] == [(0, 1)]


# --- packed monomials ------------------------------------------------------------------

@st.composite
def _packed_case(draw):
    """An order, a variable count and three exponent tuples of degree <= MAX_DEGREE."""
    order = draw(st.sampled_from([GREVLEX, LEX, DS, BlockOrder(1), BlockOrder(2)]))
    n = draw(st.integers(1, 5))
    exponent = st.one_of(st.integers(0, 3), st.integers(0, MAX_DEGREE // n))
    expo = st.tuples(*[exponent] * n)
    return order, n, draw(expo), draw(expo), draw(expo)


def _sign(v):
    return (v > 0) - (v < 0)


@settings(max_examples=200)
@given(_packed_case())
def test_packed_monomials_follow_the_order(case):
    order, n, a, b, c = case
    pk = _Packing(order, n)
    pa, pb = pk.pack(a), pk.pack(b)
    # the weight rows give the hand-written order, and int comparison gives both
    cmp = compare(order, a, b)
    assert _sign((reference_key(order, a) > reference_key(order, b))
                 - (reference_key(order, a) < reference_key(order, b))) == cmp
    assert _sign(pa - pb) == cmp
    # a product is one addition, with the shift pack(b) - pack(1)
    ab = tuple(u + v for u, v in zip(a, b))
    assert pk.pack(ab) == pa + (pb - pk.zero)
    assert _sign(pk.pack(ab) - pk.pack(tuple(u + v for u, v in zip(c, b)))) == compare(order, a, c)
    # the guard test is divisibility, also against a multiple of the divisor
    assert (not (pb - pa) & pk.guard) == mono_divides(a, b)
    assert not (pk.pack(ab) - pa) & pk.guard
    assert pk.unpack(pa) == a
    assert (pa & pk.deg_mask) >> (n * EXP_BITS) == sum(a)


def test_degree_past_the_packed_fields_raises():
    with pytest.raises(BudgetExceededError):
        reduced_groebner_basis([x ** (MAX_DEGREE + 1) + y])
    # within the limit on input, but the S-pair shifts y^MAX by y
    with pytest.raises(BudgetExceededError):
        reduced_groebner_basis([x**MAX_DEGREE + y**MAX_DEGREE, x * y])
    with pytest.raises(BudgetExceededError):
        normal_form(x**MAX_DEGREE * y + z, [x * y - y**MAX_DEGREE])
    with pytest.raises(BudgetExceededError):
        lead_monomial_basis([x, y], order=DS, truncate_degree=MAX_DEGREE + 1)
    # a monomial of degree exactly MAX_DEGREE is kept
    assert normal_form(x**MAX_DEGREE, [x**MAX_DEGREE - y**MAX_DEGREE]) == y**MAX_DEGREE
    # under a cap such terms are dropped, not an error: the S-polynomial
    # y * (x + y^MAX) - x * y is y^(MAX + 1), past the cap
    S2 = PolyRing(Q, ("x", "y"))
    a, b = S2.var("x"), S2.var("y")
    assert lead_monomial_basis([a + b**MAX_DEGREE, a * b], order=DS,
                               truncate_degree=MAX_DEGREE) == ((1, 0),)


def test_leads_without_a_pure_power_skip_the_covered_degree_scan(monkeypatch):
    # no lead is a power of y or of z, so no degree is ever covered; a scan
    # for the first covered degree before the pairs would count every degree
    # up to the cap, each a sum of d + 1 two-variable counts (about 500,000
    # calls here).  The run counts only at pop time, once per lcm degree.
    calls = []
    count = groebner.standard_count

    def counted(leads, nvars, d):
        calls.append(nvars)
        return count(leads, nvars, d)

    monkeypatch.setattr(groebner, "standard_count", counted)
    assert lead_monomial_basis([x + y**1000, x * y], order=DS,
                               truncate_degree=1000) == ((1, 0, 0),)
    # only the heap's one lcm degree, 2, is counted: 3 two-variable counts
    assert calls == [3, 2, 2, 2]


def test_global_order_takes_no_truncation():
    # in(J + m^3) for J = (x^2 + y) is (x^2, xy, y^2), yet a grevlex run cut
    # at degree 2 would drop the S-polynomials with m^3 and keep only x^2
    with pytest.raises(InputError):
        lead_monomial_basis([x**2 + y], GREVLEX, truncate_degree=2)
