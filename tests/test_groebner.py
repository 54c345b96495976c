import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symrees.errors import EmptyIdealError, ZeroPolynomialError
from symrees.fields import CyclotomicField, PrimeField, RationalField
from symrees.groebner import (
    normal_form,
    reduced_groebner_basis,
    s_polynomial,
)
from symrees.polynomials import GREVLEX, PolyRing, Polynomial

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


def _random_polys(ring, rnd, count=3, max_terms=3, max_exp=3):
    out = []
    for _ in range(count):
        terms = {}
        for _ in range(rnd.randint(1, max_terms)):
            m = tuple(rnd.randint(0, max_exp) for _ in range(ring.nvars))
            terms[m] = ring.field.from_int(rnd.randint(-5, 5))
        p = Polynomial.from_dict(ring, terms)
        if not p.is_zero():
            out.append(p)
    return out


@settings(max_examples=30)
@given(st.randoms(use_true_random=False))
def test_all_s_pairs_reduce_to_zero(rnd):
    ring = PolyRing(PrimeField(13), ("x", "y"))
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
