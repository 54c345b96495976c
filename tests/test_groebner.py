from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import compare, local_leads_by_elimination, reference_key, s_polynomial
from symrees.errors import BudgetExceededError, EmptyIdealError, ZeroPolynomialError
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
from symrees.polynomials import DS, GREVLEX, LEX, BlockOrder, PolyRing, Polynomial, mono_divides

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
    assert gb.contains(y**2 + y)
    assert not gb.contains(x)


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
        p = Polynomial.from_dict(ring, terms)
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
        leads = [p.lead_term(GREVLEX)[0] for p in polys]
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


# --- truncated local-order runs ------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from([Q, CyclotomicField(3), PrimeField(7)]),
       st.sampled_from([2, 3]), st.booleans())
def test_truncated_ds_leads_match_elimination(rnd, field, nvars, with_power):
    from symrees.verifier import _truncation_inputs

    ring = PolyRing(field, ("x", "y", "z")[:nvars])
    # small n next to the generators' degrees puts pairs at the covered degree
    n = rnd.randint(2, 6 if nvars == 2 else 4)
    gens = _random_polys(ring, rnd, max_terms=4, max_exp=rnd.randint(1, 3), constant=False)
    if with_power:
        gens = _truncation_inputs(gens, ring, n)  # J cut below n, plus m^n
    if not any(sum(m) <= n for g in gens for m in g.terms):
        with pytest.raises(EmptyIdealError):
            lead_monomial_basis(gens, order=DS, truncate_degree=n)
        return
    leads = lead_monomial_basis(gens, order=DS, truncate_degree=n)
    assert len(set(leads)) == len(leads)
    assert set(leads) == local_leads_by_elimination(gens, n)


def test_truncated_run_ends_at_its_first_covered_degree(monkeypatch):
    # fermat-4 over F_13, seed 0: degree 35 is the first without a standard
    # monomial (stable_at 36), so the run at N' = 40 reduces no S-polynomial
    # whose terms all have degree >= 36
    from symrees.configs import fermat
    from symrees.verifier import _eliminate_along, _truncation_inputs, pick_generic_linear_form

    cfg = fermat(4, field=PrimeField(13, root_order=4))
    u = pick_generic_linear_form(cfg.points, seed=0)
    a, b = _eliminate_along(u, [cfg.witnesses.xi1, cfg.witnesses.xi2])
    gens = _truncation_inputs([a, b], a.ring, 40)
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
    # under a cap the same terms are dropped, not an error
    assert lead_monomial_basis([x**MAX_DEGREE + y**MAX_DEGREE, x * y],
                               truncate_degree=MAX_DEGREE) == ((1, 1, 0), (MAX_DEGREE, 0, 0))
